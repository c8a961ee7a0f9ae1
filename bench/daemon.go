package bench

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one pbld process on a loopback port the kernel picked.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed when the log reader has drained stderr

	mu   sync.Mutex
	tail []string // last log lines, for error reports
}

var servingLine = regexp.MustCompile(`msg=serving addr=(http://\S+)`)

// startDaemon execs bin with production defaults plus flags, and
// returns once it has logged its listen address.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0"}, flags...)
	cmd := exec.Command(bin, args...)
	// The daemon must not outlive the benchmark, whatever kills it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pbld: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := servingLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			d.mu.Lock()
			if d.tail = append(d.tail, line); len(d.tail) > 20 {
				d.tail = d.tail[1:]
			}
			d.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, stderr) // a line too long for the scanner
	}()
	select {
	case d.url = <-addr:
		return d, nil
	case <-d.done:
	case <-time.After(30 * time.Second):
	}
	d.kill()
	return nil, fmt.Errorf("pbld did not start: %s", d.logTail())
}

// logTail is the daemon's recent log output.
func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop sends SIGTERM, lets the daemon drain, and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("pbld exit: %w: %s", err, d.logTail())
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		<-exited
		return errors.New("pbld did not drain within 60s")
	}
}

// kill ends the daemon without draining and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// frozen runs fn with every thread of the daemon stopped by SIGSTOP, and
// resumes it with SIGCONT after.
func (d *daemon) frozen(fn func()) error {
	pid := d.cmd.Process.Pid
	if err := syscall.Kill(pid, syscall.SIGSTOP); err != nil {
		return fmt.Errorf("stop pbld: %w", err)
	}
	err := waitStopped(pid)
	if err == nil {
		fn()
	}
	if cerr := syscall.Kill(pid, syscall.SIGCONT); cerr != nil && err == nil {
		err = fmt.Errorf("resume pbld: %w", cerr)
	}
	return err
}

// waitStopped returns once every thread of process pid is stopped.
func waitStopped(pid int) error {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		tasks, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		running := false
		for _, t := range tasks {
			b, err := os.ReadFile(filepath.Join(dir, t.Name(), "stat"))
			if err != nil {
				continue // the thread exited
			}
			// The state is the field after the parenthesised command name.
			s := string(b)
			i := strings.LastIndexByte(s, ')')
			if i < 0 || i+2 >= len(s) || (s[i+2] != 'T' && s[i+2] != 't') {
				running = true
				break
			}
		}
		if !running {
			return nil
		}
	}
	return errors.New("pbld did not stop within 5s of SIGSTOP")
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("pbld not ready after 30s: %s", d.logTail())
}

// cpuTime is a process's CPU time so far: the on-CPU nanoseconds of
// each of its threads, from /proc/<pid>/task/*/schedstat. (The clock
// ticks of /proc/<pid>/stat are 10 ms, too coarse for a per-request
// cost.) A thread that exits between two readings takes its time with
// it; the Go runtime does not retire its threads.
func cpuTime(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// peakRSS is a process's resident-set high-water mark (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU is this process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
