#include "src/runtime/event_loop.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <ctime>
#include <future>
#include <utility>
#include <vector>

namespace leases {
namespace {

// The loop whose execution lock this thread holds, if any.
thread_local const EventLoop* tls_exec_loop = nullptr;

}  // namespace

EventLoop::ExecScope::ExecScope(EventLoop* loop)
    : loop_(loop), outer_(tls_exec_loop) {
  LEASES_CHECK(outer_ != loop);  // re-entry would self-deadlock
  loop_->exec_mu_.lock();
  tls_exec_loop = loop_;
}

EventLoop::ExecScope::~ExecScope() {
  tls_exec_loop = outer_;
  loop_->exec_mu_.unlock();
}

EventLoop::EventLoop() {
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  LEASES_CHECK(wake_fd_ >= 0);
  thread_ = std::thread([this]() { Run(); });
}

EventLoop::~EventLoop() {
  Stop();
  ::close(wake_fd_);
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
    timers_.emplace(when, Timer{id, std::move(fn)});
    live_timers_.insert(id);
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
  std::lock_guard<std::mutex> lock(mu_);
  return live_timers_.erase(id) > 0;
}

void EventLoop::WatchFd(int fd, std::function<void()> on_readable) {
  LEASES_CHECK(fd >= 0);
  bool wake;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Watch watch{next_watch_id_++, std::make_shared<std::function<void()>>(
                                      std::move(on_readable))};
    LEASES_CHECK(watches_.emplace(fd, std::move(watch)).second);
    ++watch_gen_;
    wake = ClaimWakeLocked();
  }
  if (wake) {
    Wake();
  }
}

void EventLoop::UnwatchFd(int fd) {
  // Holding the execution lock while erasing is what guarantees that no
  // callback for `fd` is running now or can start later: RunWatch looks the
  // watch up under the same lock.
  std::unique_lock<std::mutex> exec(exec_mu_, std::defer_lock);
  if (!HoldsExecLock()) {
    exec.lock();
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (watches_.erase(fd) == 0) {
    return;
  }
  const uint64_t gen = ++watch_gen_;
  if (ClaimWakeLocked()) {
    lock.unlock();
    Wake();
    lock.lock();
  }
  // A sleeping loop still holds the fd inside ppoll (which keeps the socket
  // alive after close); wait until it sleeps on the new table or not at all.
  awake_cv_.wait(lock, [this, gen]() { return !sleeping_ || polled_gen_ >= gen; });
}

void EventLoop::DropCancelledTimersLocked() {
  while (!timers_.empty() &&
         live_timers_.count(timers_.begin()->second.id) == 0) {
    timers_.erase(timers_.begin());
  }
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
    DropCancelledTimersLocked();
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
    live_timers_.erase(timer.id);
  }
  timer.fn();
  return true;
}

void EventLoop::RunWatch(int fd, uint64_t watch_id) {
  ExecScope scope(this);
  std::shared_ptr<std::function<void()>> on_readable;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      return;
    }
    auto it = watches_.find(fd);
    if (it == watches_.end() || it->second.id != watch_id) {
      return;  // unwatched (or the fd number re-watched) since the poll
    }
    on_readable = it->second.on_readable;
  }
  (*on_readable)();
}

void EventLoop::Run() {
  // pfds[0] is the wake eventfd; pfds[i] pairs with watch_ids[i - 1].
  std::vector<pollfd> pfds;
  std::vector<uint64_t> watch_ids;
  bool built = false;
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
      DropCancelledTimersLocked();
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
      if (!built || polled_gen_ != watch_gen_) {
        pfds.assign(1, pollfd{wake_fd_, POLLIN, 0});
        watch_ids.clear();
        for (const auto& [fd, watch] : watches_) {
          pfds.push_back(pollfd{fd, POLLIN, 0});
          watch_ids.push_back(watch.id);
        }
        polled_gen_ = watch_gen_;
        built = true;
      }
    }
    int ready = ::ppoll(pfds.data(), pfds.size(), forever ? nullptr : &timeout,
                        nullptr);
    {
      std::lock_guard<std::mutex> lock(mu_);
      sleeping_ = false;
    }
    awake_cv_.notify_all();
    if (ready <= 0) {
      continue;  // deadline reached, or EINTR
    }
    if (pfds[0].revents != 0) {
      uint64_t count;
      ssize_t n = ::read(wake_fd_, &count, sizeof(count));
      (void)n;
      std::lock_guard<std::mutex> lock(mu_);
      wake_pending_ = false;
    }
    for (size_t i = 1; i < pfds.size(); ++i) {
      if (pfds[i].revents != 0) {
        RunWatch(pfds[i].fd, watch_ids[i - 1]);
      }
    }
  }
}

}  // namespace leases
