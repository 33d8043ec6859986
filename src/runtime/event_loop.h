// Event loop with timers and fd watches for the real-time runtime.
//
// Each runtime node owns one EventLoop. Its thread sleeps in one
// epoll_pwait2 over a wake eventfd plus the fds it watches, with the
// earliest timer as a nanosecond deadline. Protocol objects are serialized
// by an execution lock rather than pinned to one thread: every posted task,
// timer and fd callback runs under it on the loop thread, and RunInline
// runs a function under the same lock on the caller's thread. LeaseServer /
// CacheClient therefore see the same one-at-a-time execution the simulator
// provides, while a blocking call that needs no network (a read under a
// valid lease) completes without a thread hand-off. A caller may also pause
// an fd's watch and read the fd itself, and the loop is not woken for it.
// Several loops may watch one fd exclusively (one idle loop wakes per
// arrival), and a loop's thread may run work under another loop's lock
// with TryRunInline, which never blocks; see RuntimeServer.
// The loop implements TimerHost, so protocol code is oblivious to which
// world it is in.
#ifndef SRC_RUNTIME_EVENT_LOOP_H_
#define SRC_RUNTIME_EVENT_LOOP_H_

#include <chrono>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "src/clock/timer_host.h"
#include "src/common/check.h"
#include "src/common/ids.h"

namespace leases {

class EventLoop : public TimerHost {
 public:
  EventLoop();
  ~EventLoop() override;

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Enqueues a task for execution on the loop thread. Thread-safe.
  void Post(std::function<void()> task);

  // Runs `task` on the loop thread and waits for it to finish. Must not be
  // called from the loop thread itself or from inside RunInline.
  void RunSync(std::function<void()> task);

  // Runs `fn` on the calling thread under the execution lock, so it is
  // serialized with every task, timer and fd callback of this loop. Must not
  // be called from the loop thread or from inside another RunInline on this
  // loop: both would deadlock on the lock.
  template <typename Fn>
  void RunInline(Fn&& fn) {
    LEASES_CHECK(!InLoopThread());
    ExecScope scope(this);
    fn();
  }

  // RunInline without the wait: runs `fn` and returns true when the
  // execution lock is free, and returns false at once, without running
  // `fn`, while another thread holds it. Another loop's callback may call
  // it while holding its own loop's lock: a thread that only try-locks a
  // second lock cannot deadlock on it.
  template <typename Fn>
  bool TryRunInline(Fn&& fn) {
    LEASES_CHECK(!InLoopThread());
    ExecScope scope(this, std::try_to_lock);
    if (!scope.owns_lock()) {
      return false;
    }
    fn();
    return true;
  }

  // Watches `fd` for readability. `on_readable` runs on the loop thread
  // under the execution lock whenever the fd polls readable; polling is
  // level-triggered, so data a callback leaves queued wakes the next pass.
  // At most one watch per fd per loop. With `exclusive`, several loops may
  // watch the same fd and an arrival wakes one loop that sleeps on it, not
  // all (EPOLLEXCLUSIVE); an exclusive watch cannot be paused. Thread-safe.
  void WatchFd(int fd, std::function<void()> on_readable,
               bool exclusive = false);
  // Removes the watch on `fd`. After it returns the callback is not running,
  // never runs again, and the fd is out of the epoll set, so the caller may
  // close it once no other loop watches it. It waits only for a callback
  // already running, so a flooded fd cannot starve it. Thread-safe; a
  // callback may unwatch its own fd.
  void UnwatchFd(int fd);
  // Pauses or resumes the watch on `fd` with one epoll_ctl and no wake-up:
  // a paused fd does not wake the loop, and once PauseWatch returns its
  // callback does not start until ResumeWatch (one already running, when
  // the caller does not hold the execution lock, may finish). Resuming an
  // fd with data queued wakes the loop, as polling is level-triggered.
  // Thread-safe. Aborts on an exclusive watch: the kernel refuses
  // EPOLL_CTL_MOD on an EPOLLEXCLUSIVE entry.
  void PauseWatch(int fd) { SetWatchPaused(fd, true); }
  void ResumeWatch(int fd) { SetWatchPaused(fd, false); }

  // TimerHost (thread-safe).
  TimerId ScheduleAfter(Duration delay, std::function<void()> fn) override;
  bool CancelTimer(TimerId id) override;

  bool InLoopThread() const {
    return std::this_thread::get_id() == thread_.get_id();
  }

  // Stops the loop and joins the thread; pending tasks are dropped.
  void Stop();

 private:
  using SteadyPoint = std::chrono::steady_clock::time_point;

  // Holds the execution lock and marks the calling thread as its holder for
  // the scope's lifetime.
  class ExecScope {
   public:
    explicit ExecScope(EventLoop* loop);
    // Takes the lock only if it is free; see owns_lock().
    ExecScope(EventLoop* loop, std::try_to_lock_t);
    ~ExecScope();
    ExecScope(const ExecScope&) = delete;
    ExecScope& operator=(const ExecScope&) = delete;

    bool owns_lock() const { return owns_; }

   private:
    EventLoop* loop_;
    const EventLoop* outer_;
    bool owns_ = true;
  };

  struct Timer {
    TimerId id;
    std::function<void()> fn;
  };

  struct Watch {
    uint32_t id;  // tells a re-watched fd number from the one polled
    bool exclusive = false;
    bool paused = false;
    // Shared so a callback that unwatches its own fd stays alive until it
    // returns.
    std::shared_ptr<std::function<void()>> on_readable;
  };

  void Run();
  bool HoldsExecLock() const;
  // Each runs one unit of work under the execution lock; false once the
  // loop is stopping.
  bool RunNextTask();
  bool RunDueTimer();
  void RunWatch(int fd, uint32_t watch_id);
  void SetWatchPaused(int fd, bool paused);
  // Must hold mu_. True when the sleeping loop needs an eventfd write to
  // see a change; the caller then calls Wake() after releasing mu_.
  bool ClaimWakeLocked();
  void Wake();

  // Serializes all protocol work: tasks, timers, fd callbacks, RunInline.
  std::mutex exec_mu_;

  // Guards the queues, the watch table and the sleep state below.
  std::mutex mu_;
  std::deque<std::function<void()>> tasks_;
  using TimerQueue = std::multimap<SteadyPoint, Timer>;
  TimerQueue timers_;
  // Every pending timer's queue entry, so a cancel frees it at once: every
  // remote op arms a retransmit timer and cancels it on the reply, and a
  // loop that is not woken for replies would otherwise hold each one until
  // its deadline.
  std::unordered_map<TimerId, TimerQueue::iterator> timer_index_;
  IdGenerator<TimerId> timer_ids_;
  std::unordered_map<int, Watch> watches_;
  uint32_t next_watch_id_ = 1;
  // True while the loop thread is (about to be) inside epoll_pwait2;
  // sleep_until_ is the deadline it sleeps to. A change that does not move
  // work ahead of that deadline needs no wake-up.
  bool sleeping_ = false;
  SteadyPoint sleep_until_;
  bool wake_pending_ = false;  // an eventfd write is owed or unconsumed
  bool stopping_ = false;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::thread thread_;
};

}  // namespace leases

#endif  // SRC_RUNTIME_EVENT_LOOP_H_
