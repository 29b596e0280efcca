package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file owns the benchmark's child processes: building cmd/hardqd,
// booting daemons on loopback ports, reading their /proc accounting, and
// stopping them. Every process started here is killed and waited for
// before the benchmark exits.

// buildDaemon compiles ../cmd/hardqd into outDir/bin (inside the checkout;
// the toolchain skips the link when the binary is current). Build time is
// not part of any metric.
func buildDaemon(repoRoot, outDir string) (string, error) {
	bin := filepath.Join(outDir, "bin", "hardqd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	abs, err := filepath.Abs(bin)
	if err != nil {
		return "", err
	}
	cmd := exec.Command("go", "build", "-o", abs, "./cmd/hardqd")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building hardqd: %v\n%s", err, out)
	}
	return abs, nil
}

// proc is one running hardqd.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:port
	// bootMS is exec -> "listening on" in milliseconds (hardqd.boot_ms).
	bootMS float64
	logs   *syncBuffer
	waited chan struct{}
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startDaemon execs bin with args plus "-addr 127.0.0.1:0" and waits for
// the "listening on" banner line, which carries the kernel-assigned port.
func startDaemon(name, bin string, args ...string) (*proc, error) {
	args = append(args, "-addr", "127.0.0.1:0")
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, logs: &syncBuffer{}, waited: make(chan struct{})}
	cmd.Stderr = p.logs
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	addrc := make(chan string, 1)
	go func() {
		// Drains stdout for the process's whole life so the daemon never
		// blocks on a full pipe; ends at EOF when the process exits.
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(p.logs, line)
			if rest, ok := strings.CutPrefix(line, "listening on "); ok && !sent {
				sent = true
				addrc <- rest
			}
		}
		if !sent {
			close(addrc)
		}
		cmd.Wait()
		close(p.waited)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			<-p.waited
			return nil, fmt.Errorf("%s exited before listening:\n%s", name, p.logs.String())
		}
		p.bootMS = msSince(start)
		p.url = "http://" + addr
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not start listening within 60s:\n%s", name, p.logs.String())
	}
	return p, nil
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.waited:
			return fmt.Errorf("%s exited while starting:\n%s", p.name, p.logs.String())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after 30s (last error: %v)", p.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// kill SIGKILLs the process and waits until it has ended.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.waited
}

// procStat is a point-in-time read of a process's kernel accounting.
type procStat struct {
	userS, sysS float64 // CPU seconds
	rssMB       float64 // VmRSS
	hwmMB       float64 // VmHWM (peak RSS)
	wchar       float64 // bytes passed to write syscalls
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 100.0

// readProcStat reads /proc/<pid>/{stat,status,io}. Linux only; elsewhere
// (or once the process is gone) it returns an error and the CPU/RSS metrics
// are reported as unavailable.
func readProcStat(pid int) (procStat, error) {
	var st procStat
	dir := "/proc/" + strconv.Itoa(pid)
	raw, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return st, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return st, fmt.Errorf("short %s/stat", dir)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	stt, _ := strconv.ParseFloat(f[12], 64)
	st.userS, st.sysS = ut/clockTick, stt/clockTick
	if raw, err = os.ReadFile(dir + "/status"); err == nil {
		st.rssMB = statusKB(raw, "VmRSS:") / 1024
		st.hwmMB = statusKB(raw, "VmHWM:") / 1024
	}
	if raw, err = os.ReadFile(dir + "/io"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if v, ok := strings.CutPrefix(line, "wchar:"); ok {
				st.wchar, _ = strconv.ParseFloat(strings.TrimSpace(v), 64)
			}
		}
	}
	return st, nil
}

func statusKB(raw []byte, key string) float64 {
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb
		}
	}
	return 0
}

// rssLimitMB is the runaway guard: stock hardqd on the movielens demo query
// grew to 16 GB before the OOM killer took it, so any server passing 2 GB
// aborts the workload as failed.
const rssLimitMB = 2048

// watchRSS polls every server's VmRSS at 10 Hz until ctx ends; when one
// passes rssLimitMB it calls abort once with the offender.
func watchRSS(ctx context.Context, procs []*proc, abort func(reason string)) {
	t := time.NewTicker(100 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, p := range procs {
				if st, err := readProcStat(p.pid()); err == nil && st.rssMB > rssLimitMB {
					abort(fmt.Sprintf("%s VmRSS %.0f MB passed the %d MB runaway guard", p.name, st.rssMB, rssLimitMB))
					return
				}
			}
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
