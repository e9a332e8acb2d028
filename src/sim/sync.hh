/**
 * @file
 * Coroutine synchronization primitives for the simulation kernel.
 *
 *  - Trigger: one-shot broadcast event (completion records, joins).
 *  - Latch: countdown latch; fires once N completions arrive.
 *  - Semaphore: counting semaphore (queue credits, WQ slots).
 *  - Mailbox<T>: FIFO channel with suspending get() (descriptor
 *    hand-off between work queues and processing engines).
 *
 * All wake-ups are scheduled on the event queue at the current tick
 * rather than resumed inline, so firing a primitive never recurses
 * into the waiter and same-tick ordering stays FIFO-deterministic.
 */

#ifndef DSASIM_SIM_SYNC_HH
#define DSASIM_SIM_SYNC_HH

#include <coroutine>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/simulation.hh"

namespace dsasim
{

/**
 * A one-shot broadcast event. wait() suspends until fire() is called;
 * waiting on an already-fired trigger completes immediately.
 */
class Trigger
{
  public:
    explicit Trigger(Simulation &s) : sim(s) {}
    Trigger(const Trigger &) = delete;
    Trigger &operator=(const Trigger &) = delete;

    bool fired() const { return hasFired; }

    /** Fire the trigger, waking all current waiters at this tick. */
    void
    fire()
    {
        if (hasFired)
            return;
        hasFired = true;
        for (auto h : waiters)
            sim.resumeAt(sim.now(), h);
        waiters.clear();
    }

    /** Re-arm a fired trigger (no waiters may be pending). */
    void
    reset()
    {
        panic_if(!waiters.empty(), "Trigger::reset() with pending waiters");
        hasFired = false;
    }

    auto
    wait()
    {
        struct Awaiter
        {
            Trigger &t;
            bool await_ready() const { return t.hasFired; }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                t.waiters.push_back(h);
            }
            void await_resume() const {}
        };
        return Awaiter{*this};
    }

  private:
    Simulation &sim;
    bool hasFired = false;
    std::vector<std::coroutine_handle<>> waiters;
};

/**
 * Countdown latch: arrive() must be called @p count times before
 * wait() completes. Used to join fan-out work (e.g., a batch of
 * descriptors, parallel worker tasks).
 */
class Latch
{
  public:
    Latch(Simulation &s, std::uint64_t count)
        : trig(s), remaining(count)
    {
        if (remaining == 0)
            trig.fire();
    }

    void
    arrive()
    {
        panic_if(remaining == 0, "Latch::arrive() past zero");
        if (--remaining == 0)
            trig.fire();
    }

    auto wait() { return trig.wait(); }
    bool done() const { return trig.fired(); }
    std::uint64_t pending() const { return remaining; }

  private:
    Trigger trig;
    std::uint64_t remaining;
};

/**
 * Counting semaphore with FIFO-fair suspending acquire().
 */
class Semaphore
{
  public:
    Semaphore(Simulation &s, std::uint64_t initial)
        : sim(s), count(initial)
    {}
    Semaphore(const Semaphore &) = delete;
    Semaphore &operator=(const Semaphore &) = delete;

    std::uint64_t available() const { return count; }

    bool
    tryAcquire()
    {
        // Respect FIFO fairness: never jump the queue.
        if (count > 0 && waiters.empty()) {
            --count;
            return true;
        }
        return false;
    }

    void
    release()
    {
        if (!waiters.empty()) {
            auto h = waiters.front();
            waiters.pop_front();
            // The credit transfers directly to the woken waiter.
            sim.resumeAt(sim.now(), h);
        } else {
            ++count;
        }
    }

    auto
    acquire()
    {
        struct Awaiter
        {
            Semaphore &s;
            bool
            await_ready()
            {
                if (s.count > 0 && s.waiters.empty()) {
                    --s.count;
                    return true;
                }
                return false;
            }
            void
            await_suspend(std::coroutine_handle<> h)
            {
                s.waiters.push_back(h);
            }
            void await_resume() const {}
        };
        return Awaiter{*this};
    }

  private:
    Simulation &sim;
    std::uint64_t count;
    std::deque<std::coroutine_handle<>> waiters;
};

/**
 * FIFO channel. put() never blocks; get() suspends until an item is
 * available. Items are handed directly to waiters, so a woken
 * consumer is guaranteed its element.
 */
template <typename T>
class Mailbox
{
  public:
    explicit Mailbox(Simulation &s) : sim(s) {}
    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    std::size_t size() const { return items.size(); }
    bool empty() const { return items.empty(); }

    void
    put(T v)
    {
        if (!waiters.empty()) {
            GetAwaiter *w = waiters.front();
            waiters.pop_front();
            w->value.emplace(std::move(v));
            sim.resumeAt(sim.now(), w->handle);
        } else {
            items.push_back(std::move(v));
        }
    }

    std::optional<T>
    tryGet()
    {
        if (items.empty())
            return std::nullopt;
        T v = std::move(items.front());
        items.pop_front();
        return v;
    }

    auto
    get()
    {
        return GetAwaiter{*this};
    }

  private:
    struct GetAwaiter
    {
        Mailbox &mb;
        std::optional<T> value{};
        std::coroutine_handle<> handle = nullptr;

        bool
        await_ready()
        {
            if (!mb.items.empty() && mb.waiters.empty()) {
                value.emplace(std::move(mb.items.front()));
                mb.items.pop_front();
                return true;
            }
            return false;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            handle = h;
            mb.waiters.push_back(this);
        }

        T await_resume() { return std::move(*value); }
    };

    Simulation &sim;
    std::deque<T> items;
    std::deque<GetAwaiter *> waiters;
};

} // namespace dsasim

#endif // DSASIM_SIM_SYNC_HH
