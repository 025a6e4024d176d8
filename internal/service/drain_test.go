package service

import (
	"context"
	"errors"
	"io"
	"log"
	"sync"
	"testing"
	"time"
)

// TestShutdownDrainInFlight: Shutdown lets in-flight and queued jobs run
// to completion, every Done channel closes, and submissions arriving
// after the drain began get ErrShutdown.
func TestShutdownDrainInFlight(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		once.Do(func() { close(started) })
		<-release // hold the worker so Shutdown races a genuinely in-flight job
		return nil
	}}
	svc := newTestService(t, Config{Workers: 1, QueueSize: 8, Hooks: hooks}, true)

	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(Request{Spec: numberedSpec(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()
	// Shutdown must not return while the worker is held.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned while a job was in flight: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	// Submissions during the drain are turned away.
	if _, err := svc.Submit(Request{Spec: numberedSpec(99)}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("mid-drain Submit error = %v, want ErrShutdown", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Every job reached a terminal state and its Done channel closed.
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s Done channel still open after Shutdown", j.ID())
		}
		if v := svc.Snapshot(j); v.State != StateDone {
			t.Fatalf("drained job %s: %+v", j.ID(), v)
		}
	}
}

// TestShutdownFinalizesBackedOffJobs: a job sitting in a retry backoff
// when Shutdown arrives cannot wait out its timer — it is finalized as a
// replayable failure (its Done channel closes) and its journal record
// survives compaction, so a restart picks it up.
func TestShutdownFinalizesBackedOffJobs(t *testing.T) {
	dir := t.TempDir()
	hooks := &Hooks{BeforeVerify: func(id string, attempt int) error {
		return errors.New("transient wobble")
	}}
	svc := newTestService(t, Config{
		Workers: 1, CacheDir: dir, MaxAttempts: 5,
		RetryBaseDelay: time.Hour, // park the retry far beyond the test
		Hooks:          hooks,
	}, true)
	j, err := svc.Submit(Request{Spec: tinySpec, TimeoutMS: int((4 * time.Hour) / time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the first attempt to fail into backoff.
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().JobsRetried.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never entered backoff")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("backed-off job's Done channel open after Shutdown")
	}
	v := svc.Snapshot(j)
	if v.State != StateFailed {
		t.Fatalf("backed-off job: %+v", v)
	}

	// The restart replays it; with the hook gone it completes.
	svc2 := newTestService(t, Config{Workers: 1, CacheDir: dir}, true)
	if got := svc2.Metrics().JobsReplayed.Load(); got != 1 {
		t.Fatalf("JobsReplayed = %d, want 1", got)
	}
	j2, ok := svc2.Job(j.ID())
	if !ok {
		t.Fatal("replayed job missing")
	}
	waitDone(t, j2)
	if v := svc2.Snapshot(j2); v.State != StateDone {
		t.Fatalf("replayed job: %+v", v)
	}
}

// TestSubmitShutdownRace: submissions racing Shutdown on a journaled
// service get a job or ErrShutdown, never a panic on the closed queue.
// Each round runs eight submitters against Shutdown; the journal fsync
// between Submit's two critical sections is the window Shutdown lands in.
// Afterwards Shutdown has returned, every accepted job has finished, and a
// restart on the same journal replays none of the refused submissions.
func TestSubmitShutdownRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		dir := t.TempDir()
		done := make(chan struct{})
		go func() {
			defer close(done)
			submitShutdownRound(t, dir)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d: Submit or Shutdown hung", round)
		}
		if t.Failed() {
			t.Fatalf("round %d failed", round)
		}
	}
}

// submitShutdownRound is one round of TestSubmitShutdownRace. It runs off
// the test goroutine, so it reports with t.Error only.
func submitShutdownRound(t *testing.T, dir string) {
	svc, err := New(Config{CacheDir: dir, Workers: 1, QueueSize: 8, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Error(err)
		return
	}
	svc.Start()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []*Job
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Submit panicked: %v", r)
				}
			}()
			for i := 0; ; i++ {
				j, err := svc.Submit(Request{Spec: numberedSpec(g*100000 + i)})
				switch {
				case err == nil:
					mu.Lock()
					accepted = append(accepted, j)
					mu.Unlock()
				case errors.Is(err, ErrShutdown):
					return
				case !errors.Is(err, ErrQueueFull):
					t.Errorf("Submit: %v", err)
					return
				}
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	wg.Wait()
	for _, j := range accepted {
		select {
		case <-j.Done():
		default:
			t.Errorf("accepted job %s still open after Shutdown", j.ID())
		}
	}

	restarted, err := New(Config{CacheDir: dir, Workers: 1, Log: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Error(err)
		return
	}
	if got := restarted.Metrics().JobsReplayed.Load(); got != 0 {
		t.Errorf("restart replayed %d job(s); refused submissions must not come back", got)
	}
	if err := restarted.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown after restart: %v", err)
	}
}
