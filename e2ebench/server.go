package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every mainstream Linux build; reading it needs sysconf, which the
// standard library does not expose.
const clockTicks = 100

// buildServer compiles ./cmd/lrserved from the repository at root into dir.
func buildServer(root, dir string) (string, error) {
	bin := filepath.Join(dir, "lrserved")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lrserved")
	cmd.Dir = root
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build lrserved: %w", err)
	}
	return bin, nil
}

// server is one lrserved subprocess listening on loopback.
type server struct {
	cmd      *exec.Cmd
	base     string // http://127.0.0.1:port
	cacheDir string
	log      *os.File // the process's stdout and stderr
	exited   chan struct{}
	waitErr  error
}

// freePort asks the kernel for an unused loopback port. The port is
// released before lrserved binds it; startServer retries if another
// process takes it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs lrserved with args plus a loopback -addr and a fresh
// -cache-dir under runDir, and returns once /healthz answers 200 and ready
// (when non-nil) accepts the health body. The returned duration runs from
// exec to that point.
func startServer(bin, runDir, name string, args []string, ready func(health) bool) (*server, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, d, err := startServerOnce(bin, runDir, fmt.Sprintf("%s-%d", name, attempt), args, ready)
		if err == nil {
			return s, d, nil
		}
		lastErr = err
	}
	return nil, 0, lastErr
}

func startServerOnce(bin, runDir, name string, args []string, ready func(health) bool) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	cacheDir := filepath.Join(runDir, name+"-cache")
	if err := os.RemoveAll(cacheDir); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(runDir, name+".log"))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(append([]string{}, args...), "-addr", addr, "-cache-dir", cacheDir)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	s := &server{cmd: cmd, base: "http://" + addr, cacheDir: cacheDir, log: logf, exited: make(chan struct{})}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start lrserved: %w", err)
	}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()

	probe := &http.Client{Timeout: 2 * time.Second}
	deadline := t0.Add(60 * time.Second)
	for {
		h, err := getHealth(probe, s.base)
		if err == nil && (ready == nil || ready(h)) {
			return s, time.Since(t0), nil
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("lrserved exited during start-up (%v); see %s", s.waitErr, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("lrserved not ready after 60s: %v", err)
		}
		nanosleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM, waits for the drain, and kills the process if it has
// not exited within 30 s. It always waits for the process to end.
func (s *server) stop() error {
	defer s.log.Close()
	select {
	case <-s.exited:
		return s.waitErr
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("lrserved did not drain within 30s and was killed")
	}
}

// health is the part of the /healthz body the benchmark reads.
type health struct {
	Stats struct {
		Queued         int `json:"queued"`
		ClusterWorkers int `json:"cluster_workers"`
	} `json:"stats"`
}

func getHealth(c *http.Client, base string) (health, error) {
	var h health
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return h, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return h, fmt.Errorf("/healthz: %s", resp.Status)
	}
	return h, json.NewDecoder(resp.Body).Decode(&h)
}

// scrapeMetrics reads the counters and gauges of /metrics (histogram series
// are skipped).
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// cpuTime returns the process's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 of this remainder.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the process's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// nanosleep sleeps d with one nanosleep(2) call: time.Sleep rounds short
// sleeps up to the runtime timer granularity, which is too coarse to pace
// an open loop.
func nanosleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// drainClose reads the rest of a response body so the connection can be
// reused, then closes it.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, body)
	body.Close()
}

// pollHealth samples /healthz every interval until ctx ends and returns the
// largest queue depth seen.
func pollHealth(ctx context.Context, base string, interval time.Duration) int {
	c := &http.Client{Timeout: time.Second}
	maxQueued := 0
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if h, err := getHealth(c, base); err == nil && h.Stats.Queued > maxQueued {
			maxQueued = h.Stats.Queued
		}
		select {
		case <-ctx.Done():
			return maxQueued
		case <-t.C:
		}
	}
}
