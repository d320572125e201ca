package main

import (
	"bytes"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark host is Linux: the open-loop timer is a timerfd and the
// steal share comes from /proc/stat.

// timer is a one-shot timerfd read through the runtime's network poller.
// An idle Go process wakes for its own timers only at millisecond
// granularity, far coarser than the gap between open-loop ops; a timerfd
// turning readable wakes the poller at once.
type timer struct {
	fd  uintptr // kept apart from f: File.Fd would make f blocking
	f   *os.File
	buf [8]byte
}

func newTimer() (*timer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &timer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep returns after d.
func (t *timer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec: it_interval (zero: one-shot), then it_value.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, t.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	_, err := t.f.Read(t.buf[:])
	return err
}

func (t *timer) close() { t.f.Close() }

// cpuTime is the CPU time this process has used, user plus system. Time
// the hypervisor steals from the vCPUs is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

func readSteal() cpuStat {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := bytes.Cut(raw, []byte("\n"))
	var st cpuStat
	for i, f := range bytes.Fields(line)[1:] {
		n, _ := strconv.ParseUint(string(f), 10, 64)
		st.total += n
		if i == 7 { // user nice system idle iowait irq softirq steal
			st.steal = n
		}
	}
	return st
}

// since is the share of CPU time stolen between earlier and st.
func (st cpuStat) since(earlier cpuStat) float64 {
	if st.total <= earlier.total {
		return 0
	}
	return float64(st.steal-earlier.steal) / float64(st.total-earlier.total)
}
