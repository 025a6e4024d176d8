package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The durable job journal: an append-only JSONL write-ahead log under
// -cache-dir that makes the queue itself crash-safe. Every engine-bound
// submission appends a "submit" record, fsynced before it is enqueued;
// reaching a terminal state appends "done"/"fail"/"quarantine". On
// restart, submits without a terminal record are replayed — idempotently,
// because results are content-addressed: a job whose result reached the
// cache before the crash replays as an instant cache hit. A clean
// shutdown compacts the log down to what still matters (jobs to replay,
// the quarantine ledger); a crash leaves it as-is and replay reduces it.
//
// Appends group-commit. An fsync per record cost 6-8% of lrserved's CPU
// on a batch workload (PERFORMANCE.md, "Durable path"), so appenders
// that arrive while a flush is in flight share the next one, and a batch
// journals all of its submit records in one append. A done record is
// written before its job is reported done but is not waited on: losing
// it to a power cut only costs a replay, which re-serves the same
// content-addressed verdict.
const (
	opSubmit     = "submit"
	opDone       = "done"       // terminal: result produced (and cached)
	opFail       = "fail"       // terminal: deterministic failure, not replayed
	opQuarantine = "quarantine" // terminal: retries exhausted; kept visible
	// opLease records a cluster lease grant or renewal: which worker holds
	// the job and until when. Non-terminal; the latest lease per id wins
	// and a terminal record clears it. A coordinator restart uses it to
	// reinstall outstanding leases instead of blindly re-enqueueing jobs
	// that are still running on live workers.
	opLease = "lease"
)

// journalRecord is one JSONL line. Submit records carry everything needed
// to rebuild the job (the canonical spec text, normalized options, the
// timeout to re-anchor the deadline at replay time); terminal records
// carry only the id and, for fail/quarantine, the error; lease records
// carry the holder and expiry.
type journalRecord struct {
	Op        string          `json:"op"`
	ID        string          `json:"id"`
	Name      string          `json:"name,omitempty"`
	Spec      string          `json:"spec,omitempty"`
	Options   *RequestOptions `json:"options,omitempty"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
	Error     string          `json:"error,omitempty"`
	// Worker and ExpireAtMS belong to lease records: the holding worker's
	// id and the lease expiry as a Unix-milliseconds wall timestamp (wall
	// clock so it stays meaningful across the restart that replays it).
	Worker     string `json:"worker,omitempty"`
	ExpireAtMS int64  `json:"expire_at_ms,omitempty"`
}

var errLogClosed = errors.New("service: log closed")

// logFile is an append-only file of newline-terminated lines: the shape
// of both the job journal and the result log. Its mutex orders the
// write(2) calls. A write that fails part-way is cut back off the file
// before the next one, so a torn line never glues itself to the line
// after it, and size stays the offset where the next line starts.
type logFile struct {
	path   string
	mu     sync.Mutex
	f      *os.File // nil before a lazily created log's first write, and once closed
	size   int64
	torn   bool // a failed write may have left bytes past size
	closed bool
	// writeFn replaces f.Write when set: the seam tests use to fail a
	// write part-way.
	writeFn func(f *os.File, p []byte) (int, error)
}

// openLog opens the line log at path and hands visit each line in order,
// newline included, with its offset; visit reports whether the line is a
// record. The line is only valid during the call. An unterminated last
// line is what a crash mid-write leaves: when visit rejects it, it is cut
// off the file, and when visit keeps it, its newline is written, so the
// next write starts a line of its own. A whole line visit rejects stays.
// Lines have no length limit. A missing file is created when create is
// set; otherwise the log's first write creates it.
func openLog(path string, create bool, visit func(line []byte, off int64) bool) (*logFile, error) {
	flag := os.O_RDWR | os.O_APPEND
	if create {
		flag |= os.O_CREATE
	}
	l := &logFile{path: path}
	f, err := os.OpenFile(path, flag, 0o644)
	if !create && errors.Is(err, fs.ErrNotExist) {
		return l, nil
	}
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 64<<10)
	var long []byte
	for {
		chunk, err := r.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long, chunk...)
			continue
		}
		if err != nil && err != io.EOF {
			f.Close()
			return nil, err
		}
		line := chunk
		if len(long) > 0 {
			line = append(long, chunk...)
			long = line[:0]
		}
		if len(line) == 0 {
			break
		}
		keep := visit(line, l.size)
		if err == nil {
			l.size += int64(len(line))
			continue
		}
		if keep {
			_, err = f.Write([]byte{'\n'})
			if err == nil {
				err = f.Sync()
			}
			l.size += int64(len(line)) + 1
		} else {
			err = f.Truncate(l.size)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("repair torn tail: %w", err)
		}
		break
	}
	l.f = f
	return l, nil
}

// write appends p, which holds whole lines, with one write(2) and returns
// the offset it starts at.
func (l *logFile) write(p []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		if l.closed {
			return 0, errLogClosed
		}
		f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		l.f = f
	}
	if l.torn {
		if err := l.f.Truncate(l.size); err != nil {
			return 0, fmt.Errorf("cut torn write: %w", err)
		}
		l.torn = false
	}
	write := (*os.File).Write
	if l.writeFn != nil {
		write = l.writeFn
	}
	if _, err := write(l.f, p); err != nil {
		l.torn = l.f.Truncate(l.size) != nil
		return 0, err
	}
	off := l.size
	l.size += int64(len(p))
	return off, nil
}

// sync fsyncs everything written so far. It runs outside the write mutex,
// so writers that do not wait for durability never queue behind it.
func (l *logFile) sync() error {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	if f == nil {
		return errLogClosed
	}
	return f.Sync()
}

// readAt reads len(p) bytes at off.
func (l *logFile) readAt(p []byte, off int64) error {
	l.mu.Lock()
	f := l.f
	l.mu.Unlock()
	if f == nil {
		return errLogClosed
	}
	_, err := f.ReadAt(p, off)
	return err
}

func (l *logFile) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.closed = true
}

// journal is the WAL handle: a logFile plus the group commit in front of
// it.
type journal struct {
	log *logFile
	// skipped holds one error per whole line openJournal could not decode;
	// New counts and logs them.
	skipped []error
	// metrics receives the flush counters and timings (nil = none).
	metrics *Metrics

	// mu guards the group commit: the lines waiting for the next flush,
	// how many records they hold, one channel per appender they cover, and
	// whether a flush is in flight.
	mu       sync.Mutex
	pending  []byte
	nrecs    int
	waiters  []chan error
	flushing bool
}

// errLead, sent to a waiting appender, hands it the next flush.
var errLead = errors.New("lead the next flush")

// openJournal opens (creating if absent) the WAL at path and returns the
// records already in it. A whole line that does not decode is skipped and
// noted in skipped, and the records after it still replay; a torn last
// line is kept when it decodes and cut when it does not (see openLog).
func openJournal(path string) (*journal, []journalRecord, error) {
	var (
		recs    []journalRecord
		skipped []error
		n       int
	)
	l, err := openLog(path, true, func(line []byte, _ int64) bool {
		n++
		if len(bytes.TrimSpace(line)) == 0 {
			return true
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if line[len(line)-1] == '\n' {
				skipped = append(skipped, fmt.Errorf("line %d: %w", n, err))
			}
			return false
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal: %w", err)
	}
	return &journal{log: l, skipped: skipped}, recs, nil
}

func encodeRecords(recs []journalRecord) ([]byte, error) {
	var data []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		data = append(append(data, line...), '\n')
	}
	return data, nil
}

// append writes recs and returns once they are fsynced, so a record the
// caller acts on (enqueue, hand out a lease, report a failure) is on disk
// first. Appenders group-commit: the first to find no flush in flight
// leads one, and those arriving meanwhile wait for the next, which the
// leader hands to the first of them.
func (w *journal) append(recs ...journalRecord) error {
	data, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	done := make(chan error, 1)
	w.mu.Lock()
	w.pending = append(w.pending, data...)
	w.nrecs += len(recs)
	w.waiters = append(w.waiters, done)
	lead := !w.flushing
	w.flushing = true
	w.mu.Unlock()
	if !lead {
		if err := <-done; err != errLead {
			return err
		}
	}
	w.flush()
	return <-done
}

// flush writes and fsyncs everything pending as one group, hands the next
// flush to the first appender that arrived meanwhile, and wakes exactly
// the appenders this flush covered with its error.
func (w *journal) flush() {
	w.mu.Lock()
	data, n, covered := w.pending, w.nrecs, w.waiters
	w.pending, w.nrecs, w.waiters = nil, 0, nil
	w.mu.Unlock()

	start := time.Now()
	_, err := w.log.write(data)
	if err == nil {
		err = w.log.sync()
		if m := w.metrics; m != nil {
			m.JournalSyncs.Add(1)
			m.JournalRecords.Add(uint64(n))
			m.ObservePhase("journal", time.Since(start))
		}
	}

	var next chan error
	w.mu.Lock()
	if len(w.waiters) > 0 {
		next = w.waiters[0]
	} else {
		w.flushing = false
	}
	w.mu.Unlock()
	if next != nil {
		next <- errLead
	}
	for _, c := range covered {
		c <- err
	}
}

// write appends recs with one write(2) and returns without waiting for an
// fsync: they become durable with the next flush or the OS's writeback.
// Only records whose loss costs a replay, never a wrong answer, may take
// this path.
func (w *journal) write(recs ...journalRecord) error {
	data, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	if _, err := w.log.write(data); err != nil {
		return err
	}
	if m := w.metrics; m != nil {
		m.JournalRecords.Add(uint64(len(recs)))
	}
	return nil
}

// compact atomically replaces the WAL with exactly recs (write temp,
// fsync, rename) and closes the handle — the clean-shutdown epilogue. The
// replacement keeps the WAL's file mode: os.CreateTemp makes files 0600,
// which would take read access from everyone the umask let in when the WAL
// was created.
func (w *journal) compact(recs []journalRecord) error {
	w.log.close()
	tmp, err := os.CreateTemp(filepath.Dir(w.log.path), "journal-*")
	if err != nil {
		return err
	}
	if fi, err := os.Stat(w.log.path); err == nil {
		if err := tmp.Chmod(fi.Mode().Perm()); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	enc := json.NewEncoder(tmp)
	for _, rec := range recs {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), w.log.path)
}

// close releases the handle without compacting — the crash path.
func (w *journal) close() {
	w.log.close()
}

// replayState is the journal reduced to what a restart must act on.
type replayState struct {
	pending     []journalRecord // submits with no terminal record: re-enqueue
	quarantined []journalRecord // submit records whose job was quarantined
	reasons     map[string]string
	// leases maps pending job ids to their latest lease record (cluster
	// mode): an unexpired lease is reinstalled on the coordinator so a
	// still-running worker can complete it; an expired one re-dispatches
	// the job exactly once. Non-cluster replay ignores this and simply
	// re-enqueues the pending submit.
	leases map[string]journalRecord
}

// reduceJournal folds the record stream into replay state. Order matters
// only per id; unknown ops are skipped so an old binary can replay a
// newer journal's jobs.
func reduceJournal(recs []journalRecord) replayState {
	submits := make(map[string]journalRecord)
	var order []string
	terminal := make(map[string]string) // id -> terminal op
	reasons := make(map[string]string)
	leases := make(map[string]journalRecord)
	for _, rec := range recs {
		switch rec.Op {
		case opSubmit:
			if _, ok := submits[rec.ID]; !ok {
				order = append(order, rec.ID)
			}
			submits[rec.ID] = rec
		case opLease:
			leases[rec.ID] = rec
		case opDone, opFail, opQuarantine:
			terminal[rec.ID] = rec.Op
			delete(leases, rec.ID) // the lease resolved before the crash
			if rec.Error != "" {
				reasons[rec.ID] = rec.Error
			}
		}
	}
	st := replayState{reasons: reasons, leases: make(map[string]journalRecord)}
	for _, id := range order {
		switch terminal[id] {
		case "":
			st.pending = append(st.pending, submits[id])
			if lr, ok := leases[id]; ok {
				st.leases[id] = lr
			}
		case opQuarantine:
			st.quarantined = append(st.quarantined, submits[id])
		}
	}
	return st
}
