package clitest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// freeAddr returns a loopback address no listener holds at the moment.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// output collects a subprocess's output for failure messages.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// startLrserved starts bin with args and stops it with SIGTERM when the
// test ends. Its output is returned for failure messages.
func startLrserved(t *testing.T, bin string, args ...string) (*exec.Cmd, *output) {
	t.Helper()
	out := &output{}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-exited
		}
	})
	return cmd, out
}

// get fetches url and returns the status and body.
func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

// metric reads one unlabeled series from base's /metrics (-1 if absent).
func metric(t *testing.T, base, name string) float64 {
	t.Helper()
	_, body := get(t, base+"/metrics")
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err == nil {
				return f
			}
		}
	}
	return -1
}

// waitFor polls cond every 50 ms for up to 30 s.
func waitFor(t *testing.T, what string, out *output, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(50 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s\n%s", what, out)
}

// TestLrservedJoinWorker drives the real -join path: a coordinator with
// one in-process worker and a second lrserved process joined to it over
// HTTP. Both register, a batch runs to done, the joined worker's listener
// serves its health surface and nothing else, and SIGTERM makes it leave,
// which the coordinator counts.
func TestLrservedJoinWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	bin := buildLrserved(t)
	coordAddr, workerAddr := freeAddr(t), freeAddr(t)
	coord := "http://" + coordAddr
	_, coordOut := startLrserved(t, bin, "-addr", coordAddr, "-coordinator", "-workers", "1",
		"-lease-ttl", "10s", "-heartbeat-interval", "500ms")
	waitFor(t, "the coordinator's /healthz", coordOut, func() bool {
		status, _ := get(t, coord+"/healthz")
		return status == http.StatusOK
	})
	worker, workerOut := startLrserved(t, bin, "-join", coord, "-addr", workerAddr, "-worker-id", "joined-1")
	waitFor(t, "lrserved_cluster_workers 2", coordOut, func() bool {
		return metric(t, coord, "lrserved_cluster_workers") == 2
	})

	var specs []string
	for i := 0; i < 4; i++ {
		specs = append(specs, fmt.Sprintf("protocol p%d\ndomain %d\nwindow -1 0\nlegit x[-1] == x[0]\naction f: x[-1] != x[0] -> x[0] := x[-1]\n", i, i+2))
	}
	req, err := json.Marshal(map[string]any{"specs": specs, "wait": true})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coord+"/v1/verify/batch", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Done int `json:"done"`
	}
	err = json.NewDecoder(resp.Body).Decode(&batch)
	resp.Body.Close()
	if err != nil || batch.Done != len(specs) {
		t.Fatalf("batch: %d of %d done (%v)\ncoordinator:\n%s\nworker:\n%s", batch.Done, len(specs), err, coordOut, workerOut)
	}

	status, body := get(t, "http://"+workerAddr+"/healthz")
	var health map[string]any
	if status != http.StatusOK || json.Unmarshal(body, &health) != nil || health["role"] != "worker" || health["worker_id"] != "joined-1" {
		t.Fatalf("worker /healthz: %d %s", status, body)
	}
	for _, path := range []string{"/metrics", "/v1/jobs", "/cluster/v1/cache/x"} {
		if status, body := get(t, "http://"+workerAddr+path); status != http.StatusNotFound {
			t.Errorf("worker GET %s: %d %s, want 404", path, status, body)
		}
	}

	lost := metric(t, coord, "lrserved_cluster_workers_lost_total")
	if err := worker.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lrserved_cluster_workers_lost_total to move", workerOut, func() bool {
		return metric(t, coord, "lrserved_cluster_workers_lost_total") > lost
	})
	if n := metric(t, coord, "lrserved_cluster_workers"); n != 1 {
		t.Fatalf("lrserved_cluster_workers = %v after the joined worker left, want 1", n)
	}
}
