/**
 * @file
 * RAII override of one environment variable for tests that pin a
 * scheduler knob the suite-wide overrides (MDW_FAST_PATH, MDW_SHARDS,
 * ...) would otherwise replace when a Network is built.
 */

#ifndef MDW_TESTS_SCOPED_ENV_HH
#define MDW_TESTS_SCOPED_ENV_HH

#include <cstdlib>
#include <optional>
#include <string>

namespace mdw {

/** Sets (or, given nullptr, unsets) @p name until destruction, then
 *  restores the previous value. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        if (value != nullptr)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (saved_)
            ::setenv(name_.c_str(), saved_->c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    std::string name_;
    std::optional<std::string> saved_;
};

} // namespace mdw

#endif // MDW_TESTS_SCOPED_ENV_HH
