package main

// Child processes, scratch directories and their clean-up, and the /proc
// counters of the server under test.

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cleanups are undone on every exit path main controls: normal return, error,
// SIGINT/SIGTERM. Children additionally carry PR_SET_PDEATHSIG(SIGKILL), so
// even a crash of this process cannot leave a server behind, and scratch
// directories a crash leaves are swept by the next start (sweepStale).
var cleanups struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	cleanups.Lock()
	cleanups.fns = append(cleanups.fns, fn)
	cleanups.Unlock()
}

func runCleanups() {
	cleanups.Lock()
	fns := cleanups.fns
	cleanups.fns = nil
	cleanups.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

func cleanupOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-ch
		fmt.Fprintf(os.Stderr, "benchmark: %v, cleaning up\n", sig)
		runCleanups()
		os.Exit(130)
	}()
}

const tempPrefix = "tmp-"

// tempDir makes a scratch directory under the output directory (inside the
// checkout, on the filesystem the results are reported for).
func (c *config) tempDir(name string) (string, error) {
	dir, err := os.MkdirTemp(c.outDir, tempPrefix+name+"-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return filepath.Abs(dir)
}

// sweepStale removes scratch directories of earlier runs that died.
func sweepStale(outDir string) {
	stale, _ := filepath.Glob(filepath.Join(outDir, tempPrefix+"*"))
	for _, dir := range stale {
		os.RemoveAll(dir)
	}
}

// serverProc is one hyperion-server child.
type serverProc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	start  time.Time // when exec was called
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer executes the server binary with the given extra flags on a
// kernel-chosen port, pinned to GOMAXPROCS=2, its stderr appended to
// <out>/<name>.server.log. It returns as soon as the process is started; use
// connect to wait until it serves.
func startServer(cfg *config, name string, args ...string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(cfg.outDir, name+".server.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(cfg.serverBin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", workers))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// Pdeathsig fires when the forking *thread* exits, so fork from a thread
	// that lives as long as the process.
	p := &serverProc{cmd: cmd, addr: addr, exited: make(chan struct{})}
	started := make(chan error)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread is retired with the goroutine, after Wait
		p.start = time.Now()
		err := cmd.Start()
		started <- err
		if err == nil {
			cmd.Wait()
			close(p.exited)
		}
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", cfg.serverBin, err)
	}
	onExit(p.kill)
	return p, nil
}

// kill sends SIGKILL — the crash the durable workload recovers from — and
// waits for the process to be gone.
func (p *serverProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// connect dials the server until it accepts (ready probe, no fixed sleep).
func (p *serverProc) connect() (*client, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := dial(p.addr)
		if err == nil {
			return c, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("server exited before accepting connections (see its log): %v", err)
		default:
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server not ready after 60 s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// procSample is a point-in-time reading of a process's cumulative counters.
type procSample struct {
	cpu         time.Duration // user + system
	ctxSwitches int64         // voluntary + involuntary, all threads
	peakRSS     int64         // bytes (VmHWM)
}

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100 Hz on Linux).
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 14 {
		return s, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(rest[11], 10, 64)
	stime, _ := strconv.ParseInt(rest[12], 10, 64)
	s.cpu = time.Duration(utime+stime) * (time.Second / 100)
	tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/status", pid))
	for _, t := range tasks {
		s.ctxSwitches += statusField(t, "voluntary_ctxt_switches:") + statusField(t, "nonvoluntary_ctxt_switches:")
	}
	s.peakRSS = statusField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM:") << 10
	return s, nil
}

// statusField returns the first number after label in a /proc status file.
func statusField(path, label string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0 // a thread that exited between Glob and ReadFile
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, label); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// selfCPU is this process's cumulative user + system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
