package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// ccserve is one running ccserve process with its own data directory and
// log file. Every workload starts it with the same flags.
type ccserve struct {
	cmd  *exec.Cmd
	addr string // 127.0.0.1:port
	dir  string
	log  *os.File
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// live holds every ccserve started and not yet reaped, so that each way out
// of the harness can stop them all and wait for them to end.
var live = struct {
	sync.Mutex
	set map[*ccserve]bool
}{set: map[*ccserve]bool{}}

// killAll kills every live ccserve and waits until each has ended.
func killAll() {
	live.Lock()
	srvs := make([]*ccserve, 0, len(live.set))
	for s := range live.set {
		srvs = append(srvs, s)
	}
	live.Unlock()
	for _, s := range srvs {
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startCCServe execs bin with a fresh data directory under dir.
func startCCServe(bin, dir string) (*ccserve, error) {
	if err := os.MkdirAll(filepath.Join(dir, "data"), 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "ccserve.log"))
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-datadir", filepath.Join(dir, "data"),
		"-tracesample", "0",
		"-maxtotaln", strconv.Itoa(maxTotalN),
	)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the harness, even when the harness is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting ccserve: %w", err)
	}
	s := &ccserve{cmd: cmd, addr: addr, dir: dir, log: logf, done: make(chan struct{})}
	live.Lock()
	live.set[s] = true
	live.Unlock()
	go func() {
		s.err = cmd.Wait()
		live.Lock()
		delete(live.set, s)
		live.Unlock()
		close(s.done)
	}()
	return s, nil
}

// waitListening polls until the HTTP surface answers.
func (s *ccserve) waitListening(c *conn) error {
	deadline := time.Now().Add(30 * time.Second)
	var buf bytes.Buffer
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("ccserve exited during start-up: %v\n%s", s.err, s.logTail())
		default:
		}
		if status, err := c.do(http.MethodGet, "/v1/graphs", nil, time.Second, &buf); err == nil && status == http.StatusOK {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("ccserve did not listen within 30s\n%s", s.logTail())
}

// stop sends SIGTERM and waits for the drain; a server that does not exit
// in time is killed.
func (s *ccserve) stop() error {
	defer s.log.Close()
	select {
	case <-s.done:
		return fmt.Errorf("ccserve exited early: %v\n%s", s.err, s.logTail())
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("ccserve did not drain within 20s")
	}
}

func (s *ccserve) logTail() string {
	b, err := os.ReadFile(s.log.Name())
	if err != nil {
		return ""
	}
	if len(b) > 4096 {
		b = b[len(b)-4096:]
	}
	return string(b)
}

// procStatusMB reads one "Name: value kB" field of /proc/<pid>/status in MB.
func (s *ccserve) procStatusMB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// cpuTime is the server's user+system CPU time so far.
func (s *ccserve) cpuTime() (time.Duration, error) {
	return procCPU(s.cmd.Process.Pid)
}

// procCPU reads a process's CPU time, all threads, user and system, in
// nanoseconds: clock_gettime on the process's CPU-time clock, whose id is
// (^pid)<<3 | CPUCLOCK_SCHED. /proc/<pid>/stat gives the same time in
// ticks of 10 ms, too coarse for a PATCH that takes tens of milliseconds.
func procCPU(pid int) (time.Duration, error) {
	const cpuclockSched = 2
	clock := uintptr((^pid)<<3 | cpuclockSched)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU clock of pid %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// jsonCall sends one request on c, requires want as the status, and
// decodes the response into out (when non-nil).
func jsonCall(c *conn, method, target string, body []byte, want int, out any) error {
	var buf bytes.Buffer
	status, err := c.do(method, target, body, 2*time.Minute, &buf)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, target, err)
	}
	if status != want {
		return fmt.Errorf("%s %s: status %d: %s", method, target, status, strings.TrimSpace(buf.String()))
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, target, err)
		}
	}
	return nil
}
