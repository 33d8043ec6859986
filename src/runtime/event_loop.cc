#include "src/runtime/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <ctime>
#include <future>
#include <utility>

namespace leases {
namespace {

// The loop whose execution lock this thread holds, if any.
thread_local const EventLoop* tls_exec_loop = nullptr;

// epoll_event.data carries the watch id beside the fd, so an event polled
// for an fd number that has since been unwatched and re-watched is told
// from the new watch's.
uint64_t PackWatch(int fd, uint32_t id) {
  return (static_cast<uint64_t>(id) << 32) | static_cast<uint32_t>(fd);
}

void EpollCtl(int epoll_fd, int op, int fd, uint32_t events, uint64_t data) {
  epoll_event event{};
  event.events = events;
  event.data.u64 = data;
  LEASES_CHECK(::epoll_ctl(epoll_fd, op, fd, &event) == 0);
}

}  // namespace

EventLoop::ExecScope::ExecScope(EventLoop* loop)
    : loop_(loop), outer_(tls_exec_loop) {
  LEASES_CHECK(outer_ != loop);  // re-entry would self-deadlock
  loop_->exec_mu_.lock();
  tls_exec_loop = loop_;
}

EventLoop::ExecScope::ExecScope(EventLoop* loop, std::try_to_lock_t)
    : loop_(loop), outer_(tls_exec_loop) {
  LEASES_CHECK(outer_ != loop);  // try_lock by the holder is undefined
  owns_ = loop_->exec_mu_.try_lock();
  if (owns_) {
    tls_exec_loop = loop_;
  }
}

EventLoop::ExecScope::~ExecScope() {
  if (owns_) {
    tls_exec_loop = outer_;
    loop_->exec_mu_.unlock();
  }
}

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  LEASES_CHECK(epoll_fd_ >= 0);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  LEASES_CHECK(wake_fd_ >= 0);
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, EPOLLIN,
           PackWatch(wake_fd_, 0));
  thread_ = std::thread([this]() { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

bool EventLoop::HoldsExecLock() const { return tls_exec_loop == this; }

void EventLoop::Stop() {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stopping_) {
      stopping_ = true;
      wake = true;
    }
  }
  if (wake) {
    Wake();
  }
  if (thread_.joinable()) {
    thread_.join();
  }
}

bool EventLoop::ClaimWakeLocked() {
  if (!sleeping_ || wake_pending_) {
    return false;
  }
  wake_pending_ = true;
  return true;
}

void EventLoop::Wake() {
  uint64_t one = 1;
  ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  (void)n;  // EAGAIN means the counter is already non-zero: still awake
}

void EventLoop::Post(std::function<void()> task) {
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    tasks_.push_back(std::move(task));
    wake = ClaimWakeLocked();
  }
  if (wake) {
    Wake();
  }
}

void EventLoop::RunSync(std::function<void()> task) {
  LEASES_CHECK(!InLoopThread() && !HoldsExecLock());
  std::promise<void> done;
  Post([&task, &done]() {
    task();
    done.set_value();
  });
  done.get_future().wait();
}

TimerId EventLoop::ScheduleAfter(Duration delay, std::function<void()> fn) {
  SteadyPoint when = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(delay.ToMicros());
  TimerId id;
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = timer_ids_.Next();
    timer_index_.emplace(id, timers_.emplace(when, Timer{id, std::move(fn)}));
    // A timer behind the deadline the loop already sleeps to needs no
    // wake-up: every blocking write arms one, and waking the loop for each
    // would cost a context switch per operation.
    wake = sleeping_ && when < sleep_until_ && ClaimWakeLocked();
  }
  if (wake) {
    Wake();
  }
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  TimerQueue::node_type cancelled;  // its callback is destroyed unlocked
  std::lock_guard<std::mutex> lock(mu_);
  auto it = timer_index_.find(id);
  if (it == timer_index_.end()) {
    return false;
  }
  cancelled = timers_.extract(it->second);
  timer_index_.erase(it);
  return true;
}

void EventLoop::WatchFd(int fd, std::function<void()> on_readable,
                        bool exclusive) {
  LEASES_CHECK(fd >= 0);
  std::lock_guard<std::mutex> lock(mu_);
  Watch watch{next_watch_id_++, exclusive, false,
              std::make_shared<std::function<void()>>(std::move(on_readable))};
  // An fd added to the set of a sleeping epoll_pwait2 wakes it when ready,
  // so no eventfd write is needed.
  EpollCtl(epoll_fd_, EPOLL_CTL_ADD, fd,
           exclusive ? uint32_t{EPOLLIN | EPOLLEXCLUSIVE} : uint32_t{EPOLLIN},
           PackWatch(fd, watch.id));
  LEASES_CHECK(watches_.emplace(fd, std::move(watch)).second);
}

void EventLoop::UnwatchFd(int fd) {
  // Once the watch is erased no callback for `fd` can start: RunWatch looks
  // the watch up under the execution lock and drops events for a missing
  // one. A sleeping epoll_pwait2 holds no reference to a deleted fd, so the
  // caller may close it once this returns.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (watches_.erase(fd) > 0) {
      EpollCtl(epoll_fd_, EPOLL_CTL_DEL, fd, 0, 0);
    }
  }
  // A callback that looked the watch up before the erase may still be
  // running, under the execution lock: taking the lock once waits it out.
  // Taking it before the erase would wait on every callback the flooded fd
  // kept starting, as std::mutex is not fair.
  if (!HoldsExecLock()) {
    std::lock_guard<std::mutex> exec(exec_mu_);
  }
}

void EventLoop::SetWatchPaused(int fd, bool paused) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = watches_.find(fd);
  LEASES_CHECK(it != watches_.end());
  LEASES_CHECK(!it->second.exclusive);
  if (it->second.paused == paused) {
    return;
  }
  it->second.paused = paused;
  // The interest set of a sleeping epoll_pwait2 may change under it: no
  // events keeps the fd from waking the loop, and EPOLLIN on a readable fd
  // wakes it.
  EpollCtl(epoll_fd_, EPOLL_CTL_MOD, fd, paused ? 0u : uint32_t{EPOLLIN},
           PackWatch(fd, it->second.id));
}

bool EventLoop::RunNextTask() {
  ExecScope scope(this);
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return false;
    }
    if (tasks_.empty()) {
      return true;
    }
    task = std::move(tasks_.front());
    tasks_.pop_front();
  }
  task();
  return true;
}

bool EventLoop::RunDueTimer() {
  auto due = [this]() {
    return !stopping_ && !timers_.empty() &&
           timers_.begin()->first <= std::chrono::steady_clock::now();
  };
  {
    // Peek first so an idle pass does not contend with RunInline callers.
    std::lock_guard<std::mutex> lock(mu_);
    if (!due()) {
      return false;
    }
  }
  ExecScope scope(this);
  Timer timer;
  {
    // Re-check under the execution lock: a RunInline caller may have
    // cancelled the timer meanwhile, and a cancel that returned true must
    // keep it from firing.
    std::lock_guard<std::mutex> lock(mu_);
    if (!due()) {
      return false;
    }
    auto it = timers_.begin();
    timer = std::move(it->second);
    timers_.erase(it);
    timer_index_.erase(timer.id);
  }
  timer.fn();
  return true;
}

void EventLoop::RunWatch(int fd, uint32_t watch_id) {
  ExecScope scope(this);
  std::shared_ptr<std::function<void()>> on_readable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    auto it = watches_.find(fd);
    if (it == watches_.end() || it->second.id != watch_id ||
        it->second.paused) {
      return;  // unwatched, re-watched or paused since the poll
    }
    on_readable = it->second.on_readable;
  }
  (*on_readable)();
}

void EventLoop::Run() {
  constexpr int kMaxEvents = 16;
  epoll_event events[kMaxEvents];
  while (true) {
    size_t queued;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      queued = tasks_.size();
    }
    // Only tasks queued before this pass run now, so a steady stream of
    // posts cannot starve timers and sockets.
    for (; queued > 0; --queued) {
      if (!RunNextTask()) {
        return;
      }
    }
    while (RunDueTimer()) {
    }

    timespec timeout{};
    bool forever = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) {
        return;
      }
      SteadyPoint now = std::chrono::steady_clock::now();
      bool timer_due = !timers_.empty() && timers_.begin()->first <= now;
      if (tasks_.empty() && !timer_due) {
        sleeping_ = true;
        if (timers_.empty()) {
          forever = true;
          sleep_until_ = SteadyPoint::max();
        } else {
          sleep_until_ = timers_.begin()->first;
          int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                           sleep_until_ - now)
                           .count();
          timeout.tv_sec = static_cast<time_t>(ns / 1000000000);
          timeout.tv_nsec = static_cast<long>(ns % 1000000000);
        }
      }
    }
    int ready = ::epoll_pwait2(epoll_fd_, events, kMaxEvents,
                               forever ? nullptr : &timeout, nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeping_ = false;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = static_cast<int>(events[i].data.u64 & 0xffffffffu);
      if (fd == wake_fd_) {
        uint64_t count;
        ssize_t n = ::read(wake_fd_, &count, sizeof(count));
        (void)n;
        std::lock_guard<std::mutex> lock(mu_);
        wake_pending_ = false;
      } else {
        RunWatch(fd, static_cast<uint32_t>(events[i].data.u64 >> 32));
      }
    }
  }
}

}  // namespace leases
