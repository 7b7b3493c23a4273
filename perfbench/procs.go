package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one rknn process under test. Its output goes to a log file, which
// also carries the banner with the address it listens on.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	addr    string
	done    chan struct{} // closed when the process has exited
	waitErr error
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startProc launches bin with args, GOMAXPROCS pinned to gomaxprocs. The
// process is killed if the benchmark dies first.
func startProc(bin, name, dir string, gomaxprocs int, args ...string) (*proc, error) {
	logPath := filepath.Join(dir, name+".log")
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer f.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitListening polls the log for the listen banner and returns the
// process's base URL.
func (p *proc) waitListening(ctx context.Context, timeout time.Duration) (string, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for {
		if b, err := os.ReadFile(p.logPath); err == nil {
			if m := listenRE.FindSubmatch(b); m != nil {
				p.addr = "http://" + string(m[1])
				return p.addr, nil
			}
		}
		select {
		case <-p.done:
			return "", fmt.Errorf("%s exited before listening: %v\n%s", p.name, p.waitErr, p.tail())
		case <-ctx.Done():
			return "", fmt.Errorf("%s not listening after %s\n%s", p.name, timeout, p.tail())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// tail returns the last lines of the log, for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.logPath) // best effort: the log is only a diagnostic
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], "\n")
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM %q: %w", p.name, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.Join(sc.Err(), fmt.Errorf("%s: no VmHWM in /proc status", p.name))
}

// cpuTime reads the CPU time the process's threads have run, from the
// scheduler's own accounting (/proc/<pid>/task/*/schedstat), which leaves
// out time the host stole from the virtual CPU.
func (p *proc) cpuTime() (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", p.cmd.Process.Pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("%s: no task schedstat (%v)", p.name, err)
	}
	var sum time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited after the listing
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("%s: empty %s", p.name, t)
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %s %q: %w", p.name, t, f[0], err)
		}
		sum += time.Duration(ns)
	}
	return sum, nil
}

// stop sends SIGTERM, waits for a clean exit, and kills the process if it
// has not exited within five seconds. It returns once the process is gone.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// group owns every process a run starts, so each is stopped on every path.
type group struct{ procs []*proc }

func (g *group) start(bin, name, dir string, gomaxprocs int, args ...string) (*proc, error) {
	p, err := startProc(bin, name, dir, gomaxprocs, args...)
	if err != nil {
		return nil, err
	}
	g.procs = append(g.procs, p)
	return p, nil
}

func (g *group) stopAll() {
	for _, p := range g.procs {
		p.stop()
	}
	g.procs = nil
}

// cpuTime sums the CPU time of the group's processes.
func (g *group) cpuTime() (time.Duration, error) {
	var sum time.Duration
	for _, p := range g.procs {
		d, err := p.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += d
	}
	return sum, nil
}

// peakRSSMB sums VmHWM over the group's processes.
func (g *group) peakRSSMB() (float64, error) {
	sum := 0.0
	for _, p := range g.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}
