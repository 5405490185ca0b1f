package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (100 on every Linux ABI Go supports).
const clockTicks = 100

// daemon is one running lvf2d process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// startServer execs lvf2d on a loopback port serving the fixture as
// library "fx". The child is killed if the benchmark dies.
func startServer(e *env, addr string, extra ...string) (*daemon, error) {
	log, err := os.CreateTemp(e.work, "lvf2d-*.log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-lib", "fx=" + fixturePath, "-drain", "1s"}, extra...)
	cmd := exec.Command(filepath.Join(binDir, "lvf2d"), args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start lvf2d: %w", err)
	}
	s := &daemon{cmd: cmd, url: "http://" + addr, log: log, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /readyz until it answers 200.
func (s *daemon) waitReady(timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("lvf2d exited before ready (%v); log %s", err, s.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("lvf2d not ready within %v; log %s", timeout, s.log.Name())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop kills the process and waits until it has exited.
func (s *daemon) stop() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
	s.log.Close()
}

func (s *daemon) pid() int { return s.cmd.Process.Pid }

func stopAll(ss []*daemon) {
	for _, s := range ss {
		s.stop()
	}
}

// freeAddrs reserves n distinct loopback addresses. The listeners are
// closed before lvf2d binds them; nothing else on the machine races for
// ephemeral ports in practice.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// cpuTime is utime+stime of a live process from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// fields 14 and 15 overall.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is VmHWM of a live process in MB.
func peakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU is the benchmark process's own CPU time (the load generator
// and, in traced runs, the in-process replay).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serversCPU sums cpuTime over processes.
func serversCPU(ss []*daemon) (time.Duration, error) {
	var total time.Duration
	for _, s := range ss {
		c, err := cpuTime(s.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// serversRSS sums peakRSS over processes.
func serversRSS(ss []*daemon) (float64, error) {
	var total float64
	for _, s := range ss {
		r, err := peakRSS(s.pid())
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}
