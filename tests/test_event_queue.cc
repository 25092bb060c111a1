/**
 * @file
 * Unit tests for the event queue and the simulator driver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/system.hh"

namespace mdw {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue q;
    std::vector<int> fired;
    q.schedule(30, [&] { fired.push_back(3); });
    q.schedule(10, [&] { fired.push_back(1); });
    q.schedule(20, [&] { fired.push_back(2); });
    q.runDue(25);
    EXPECT_EQ(fired, (std::vector<int>{1, 2}));
    q.runDue(30);
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameCycleFifoTieBreak)
{
    EventQueue q;
    std::vector<int> fired;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&fired, i] { fired.push_back(i); });
    q.runDue(7);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ActionMayScheduleMore)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] {
        ++count;
        q.schedule(1, [&] { ++count; }); // due immediately
        q.schedule(5, [&] { ++count; }); // later
    });
    q.runDue(2);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.nextEventCycle(), 5u);
    q.runDue(5);
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextEventCycleEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNoCycle);
}

TEST(EventQueue, EqualCycleFifoStress)
{
    // Many events crammed into few cycles: the global firing order
    // must be the schedule order stable-sorted by cycle, i.e. FIFO
    // within every cycle, no matter how the heap rebalances.
    EventQueue q;
    Rng rng(12345);
    std::vector<std::pair<Cycle, int>> scheduled;
    std::vector<int> fired;
    constexpr int kEvents = 2000;
    for (int i = 0; i < kEvents; ++i) {
        const Cycle when = rng.below(40);
        scheduled.emplace_back(when, i);
        q.schedule(when, [&fired, i] { fired.push_back(i); });
    }
    q.runDue(40);

    std::stable_sort(scheduled.begin(), scheduled.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), scheduled.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
        EXPECT_EQ(fired[i], scheduled[i].second) << "position " << i;
}

TEST(EventQueue, FifoSurvivesInterleavedDraining)
{
    // Draining part of the queue must not disturb the FIFO order of
    // ties between events scheduled before and after the drain.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(10, [&] { fired.push_back(0); });
    q.schedule(20, [&] { fired.push_back(1); });
    q.schedule(5, [&] { fired.push_back(2); });
    q.runDue(10); // fires 2, then 0
    q.schedule(20, [&] { fired.push_back(3); });
    q.schedule(15, [&] { fired.push_back(4); });
    q.runDue(25);
    EXPECT_EQ(fired, (std::vector<int>{2, 0, 4, 1, 3}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ReschedulingActionsKeepFifoWithinCycle)
{
    // An action that schedules another event for the *same* cycle:
    // the new event must fire after everything already queued for
    // that cycle (it has a later sequence number).
    EventQueue q;
    std::vector<int> fired;
    q.schedule(7, [&] {
        fired.push_back(0);
        q.schedule(7, [&] { fired.push_back(10); });
    });
    q.schedule(7, [&] { fired.push_back(1); });
    q.schedule(7, [&] { fired.push_back(2); });
    q.runDue(7);
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 10}));
}

namespace {

class TickCounter : public Component
{
  public:
    TickCounter() : Component("ticker") {}

    void
    step(Cycle now) override
    {
        ++ticks;
        last = now;
        if (report_progress && sim_)
            sim_->noteProgress();
    }

    Cycle
    nextWork(Cycle now) override
    {
        return next ? next(now) : now + 1;
    }

    int ticks = 0;
    Cycle last = 0;
    bool report_progress = true;
    /** Fast-path nextWork() answer (default: work every cycle). */
    std::function<Cycle(Cycle)> next;
};

} // namespace

TEST(Simulator, StepsComponentsOncePerCycle)
{
    Simulator sim;
    TickCounter a, b;
    sim.add(&a);
    sim.add(&b);
    sim.run(10);
    EXPECT_EQ(a.ticks, 10);
    EXPECT_EQ(b.ticks, 10);
    EXPECT_EQ(a.last, 9u);
    EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilStopsEarly)
{
    Simulator sim;
    TickCounter a;
    sim.add(&a);
    const bool done =
        sim.runUntil([&] { return a.ticks >= 5; }, 100);
    EXPECT_TRUE(done);
    EXPECT_EQ(a.ticks, 5);
}

TEST(Simulator, RunUntilHonorsLimit)
{
    Simulator sim;
    TickCounter a;
    sim.add(&a);
    const bool done = sim.runUntil([] { return false; }, 20);
    EXPECT_FALSE(done);
    EXPECT_EQ(sim.now(), 20u);
}

TEST(Simulator, EventsFireDuringRun)
{
    Simulator sim;
    int fired_at = -1;
    sim.events().schedule(5, [&] {
        fired_at = static_cast<int>(sim.now());
    });
    sim.run(10);
    EXPECT_EQ(fired_at, 5);
}

TEST(Simulator, WatchdogTripsOnStall)
{
    Simulator sim;
    TickCounter a;
    a.report_progress = false;
    sim.add(&a);
    bool tripped = false;
    sim.setWatchdog(10, [] { return true; }, [&] { tripped = true; });
    sim.run(50);
    EXPECT_TRUE(tripped);
    EXPECT_TRUE(sim.deadlockDetected());
    // run() stops once deadlocked.
    EXPECT_LE(sim.now(), 12u);
}

TEST(Simulator, WatchdogQuietWhileProgressing)
{
    Simulator sim;
    TickCounter a; // reports progress every cycle
    sim.add(&a);
    sim.setWatchdog(10, [] { return true; });
    sim.run(100);
    EXPECT_FALSE(sim.deadlockDetected());
}

TEST(Simulator, WatchdogIgnoresIdleSystem)
{
    Simulator sim;
    TickCounter a;
    a.report_progress = false;
    sim.add(&a);
    sim.setWatchdog(10, [] { return false; }); // no work pending
    sim.run(100);
    EXPECT_FALSE(sim.deadlockDetected());
}

namespace {

/** Sends one item at cycle 0. */
class OneShotSender : public Component
{
  public:
    explicit OneShotSender(Channel<int> &out)
        : Component("sender"), out_(out)
    {
    }

    void
    step(Cycle now) override
    {
        if (now == 0)
            out_.send(7, now);
    }

    Cycle nextWork(Cycle) override { return kNoCycle; }

  private:
    Channel<int> &out_;
};

/** Logs the cycle each item is received on. */
class LoggingReceiver : public Component
{
  public:
    explicit LoggingReceiver(Channel<int> &in)
        : Component("receiver"), in_(in)
    {
        in_.setWakeSink(this);
    }

    void
    step(Cycle now) override
    {
        while (in_.peek(now) != nullptr) {
            in_.receive(now);
            log.push_back(now);
        }
    }

    Cycle nextWork(Cycle) override { return in_.nextArrival(); }

    std::vector<Cycle> log;

  private:
    Channel<int> &in_;
};

} // namespace

TEST(Simulator, IdleComponentRetiresWithinOneStride)
{
    Simulator sim;
    TickCounter c; // work every cycle through 20, then none
    c.next = [](Cycle now) { return now < 20 ? now + 1 : kNoCycle; };
    sim.add(&c);
    sim.setFastPath(true);
    sim.run(100);
    // Stepped through its last work, then at most one stride of no-op
    // steps before the retire pass drops it.
    EXPECT_GE(c.last, 20u);
    EXPECT_LE(c.last, 20u + Simulator::kRetireStride);
    EXPECT_EQ(c.ticks, static_cast<int>(c.last) + 1);
    EXPECT_EQ(sim.activeCount(), 0u);

    // With the tick set empty the clock jumps: one poll before the
    // skip to the limit and one after, no steps in between.
    const int ticks = c.ticks;
    int polls = 0;
    EXPECT_FALSE(sim.runUntil(
        [&] {
            ++polls;
            return false;
        },
        1000000));
    EXPECT_EQ(polls, 2);
    EXPECT_EQ(sim.now(), 1000100u);
    EXPECT_EQ(c.ticks, ticks);
}

TEST(Simulator, WorkWithinOneStrideIsNeverRetired)
{
    Simulator sim;
    TickCounter c;
    c.next = [](Cycle now) { return now + Simulator::kRetireStride; };
    sim.add(&c);
    sim.setFastPath(true);
    sim.run(100);
    EXPECT_EQ(c.ticks, 100);
    EXPECT_EQ(sim.activeCount(), 1u);
}

// A receiver in parallel shard 0 retires during the parallel phase of
// cycle 0, before the serial bucket's sender posts to it in that same
// cycle. The send's wake request must still step it at exactly the
// arrival cycle, under every scheduler.
TEST(Simulator, ShardRetireThenSerialSendWakesAtArrival)
{
    constexpr Cycle kDelay = 3;
    // 0 = cycle path, 1 = flat fast path, 2/3 = 1 and 2 parallel
    // shards on as many threads.
    const auto run = [](int mode) {
        Simulator sim;
        Channel<int> link(kDelay);
        LoggingReceiver receiver(link);
        OneShotSender sender(link);
        sim.add(&receiver);
        sim.add(&sender);
        sim.setFastPath(mode > 0);
        if (mode >= 2) {
            const std::size_t shards = mode == 2 ? 1 : 2;
            sim.setSharding({0, static_cast<std::uint32_t>(shards)},
                            shards, static_cast<unsigned>(shards));
        }
        sim.run(40);
        return receiver.log;
    };
    for (int mode = 0; mode < 4; ++mode)
        EXPECT_EQ(run(mode), std::vector<Cycle>{kDelay}) << "mode " << mode;
}

namespace {

/** Works once every @p period cycles from @p due on, reporting
 *  progress each time; counts its steps and logs its work cycles. */
class PeriodicWorker : public Component
{
  public:
    PeriodicWorker(Cycle period, Cycle due)
        : Component("periodic"), period_(period), due_(due)
    {
    }

    void
    step(Cycle now) override
    {
        ++steps;
        if (now < due_)
            return;
        work.push_back(now);
        due_ = now + period_;
        sim_->noteProgress();
    }

    Cycle nextWork(Cycle) override { return due_; }

    int steps = 0;
    std::vector<Cycle> work;

  private:
    Cycle period_;
    Cycle due_;
};

} // namespace

// setSharding on a running simulator restarts its worker threads:
// 4 shards on 2 threads, then 3 shards on 3 threads. Each run must
// match the flat fast path step for step. Period-3 workers in
// parallel shards make progress every cycle and the serial ones do
// not, so a lost shard progress flag trips the 2-cycle watchdog.
TEST(Simulator, ReshardingRestartsThreadsBitIdentical)
{
    constexpr std::size_t kWorkers = 12;
    const auto run = [](bool sharded) {
        Simulator sim;
        std::vector<std::unique_ptr<PeriodicWorker>> workers;
        for (std::size_t i = 0; i < kWorkers; ++i) {
            workers.push_back(std::make_unique<PeriodicWorker>(
                3 + 4 * (i % 5), i % 4));
            sim.add(workers.back().get());
        }
        sim.setFastPath(true);
        sim.setWatchdog(2, [] { return true; }, [] {});
        // Worker i goes to bucket i % (shards + 1); bucket `shards`
        // is the serial one.
        const auto reshard = [&](std::uint32_t shards, unsigned threads) {
            if (!sharded) {
                sim.setFastPath(true);
                return;
            }
            std::vector<std::uint32_t> shardOf(kWorkers);
            for (std::size_t i = 0; i < kWorkers; ++i)
                shardOf[i] = static_cast<std::uint32_t>(i % (shards + 1));
            sim.setSharding(std::move(shardOf), shards, threads);
        };
        std::vector<std::pair<int, std::vector<Cycle>>> log;
        for (const auto &[shards, threads] :
             {std::pair{4u, 2u}, std::pair{3u, 3u}}) {
            reshard(shards, threads);
            sim.run(300);
            EXPECT_FALSE(sim.deadlockDetected());
            for (const auto &w : workers)
                log.emplace_back(w->steps, w->work);
        }
        return log;
    };
    EXPECT_EQ(run(true), run(false));
}

} // namespace
} // namespace mdw
