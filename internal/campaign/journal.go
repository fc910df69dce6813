package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Status is a cell's terminal disposition in the journal.
type Status string

const (
	// StatusOK: the cell simulated and its checker validated. Final.
	StatusOK Status = "ok"
	// StatusFailed: the cell failed deterministically (checker mismatch,
	// SimError, recovered panic). Final: resume does not re-run it —
	// deterministic failures fail identically.
	StatusFailed Status = "failed"
	// StatusTimeout: the cell blew its wall-clock budget. Wall time is a
	// host property, not a simulated one, so resume re-runs these cells.
	StatusTimeout Status = "timeout"
)

// Record is one journal line: a cell's identity, full parameters (so a
// journal is self-describing without its space file), disposition, and the
// simulated quantities a report needs. Every field is deterministic in the
// cell parameters — no timestamps, wall times or attempt counts — which is
// what makes resumed reports byte-identical to uninterrupted ones.
type Record struct {
	Cell   string `json:"cell"`
	Params Params `json:"params"`
	Status Status `json:"status"`
	Reason string `json:"reason,omitempty"`

	Cycles       int64   `json:"cycles,omitempty"`
	EnergyReadEq float64 `json:"energy_read_eq,omitempty"`
	SpawnCost    int64   `json:"spawn_cost,omitempty"`
	AreaFactor   float64 `json:"area_factor,omitempty"`
	L2MissRate   float64 `json:"l2_miss_rate,omitempty"`
	LLCMissRate  float64 `json:"llc_miss_rate,omitempty"`
	DRAMBusUtil  float64 `json:"dram_bus_util,omitempty"`
}

// Journal is the campaign's append-only checkpoint log. Each line is
//
//	%08x SP json \n
//
// — the CRC32 (IEEE) of the JSON body, a space, the body. A line is valid
// only if it is newline-terminated, its checksum matches, and the body
// decodes to a Record with a cell ID; anything after the first invalid
// line is a torn tail from a crash mid-write and is truncated away on
// open.
//
// Appends are group-committed. Append encodes a record and queues it; one
// writer goroutine per open Journal owns the file. It writes everything
// queued with one write per batch and fsyncs once fsyncEvery records are
// unsynced, or when Sync or Close asks, so one fsync may cover several
// records and none stays unsynced past Sync or Close. A crash loses the
// records not yet synced: fewer than fsyncEvery behind the last fsync, plus
// any queued behind an unfinished one. Resume simply re-runs their cells.
// A write or fsync error is sticky: the writer stops, and every later
// Append, Sync or Close returns it.
type Journal struct {
	f          *os.File
	fsyncEvery int
	done       chan struct{} // closed when the writer exits

	mu        sync.Mutex
	wake      sync.Cond       // the writer waits here for work
	progress  sync.Cond       // Sync waits here for durable records
	queue     []byte          // encoded lines not yet taken by the writer
	queued    int             // records in queue
	appended  int             // records written or queued, resumed ones included
	durable   int             // records written and fsynced, resumed ones included
	syncWant  int             // Sync wants the records up to here durable
	closing   bool            // Close has begun; no more appends
	err       error           // the first write or fsync error
	onDurable func(depth int) // sees each record count the writer makes durable
}

// newJournal starts the writer of a journal whose file f already holds
// records valid records and is positioned after them.
func newJournal(f *os.File, fsyncEvery, records int) *Journal {
	j := &Journal{f: f, fsyncEvery: fsyncEvery, done: make(chan struct{}), appended: records, durable: records}
	j.wake.L = &j.mu
	j.progress.L = &j.mu
	go j.writer()
	return j
}

// Create starts a fresh journal at path, truncating any existing file.
// fsyncEvery ≤ 1 fsyncs after every batch the writer writes.
func Create(path string, fsyncEvery int) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: create journal: %w", err)
	}
	return newJournal(f, fsyncEvery, 0), nil
}

// Open reopens an existing journal for resumption: it reads the prior
// records in file order, truncates any torn tail left by a crash, and
// positions the journal for appending. A missing file is not an error —
// it opens empty, so -resume works on the very first run too.
func Open(path string, fsyncEvery int) (*Journal, []Record, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		j, cerr := Create(path, fsyncEvery)
		return j, nil, cerr
	}
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: read journal: %w", err)
	}
	recs, valid := parseRecords(data)
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: reopen journal: %w", err)
	}
	if valid < len(data) {
		// Torn tail: a crash interrupted the last write. Cut the file back
		// to its last valid record; the cells the tail covered re-run.
		if err := f.Truncate(int64(valid)); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("campaign: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		_ = f.Close()
		return nil, nil, fmt.Errorf("campaign: seek journal: %w", err)
	}
	return newJournal(f, fsyncEvery, len(recs)), recs, nil
}

// parseRecords decodes lines until the first invalid one, returning the
// valid records and the byte offset where validity ends.
func parseRecords(data []byte) ([]Record, int) {
	var recs []Record
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			break // unterminated: torn mid-line
		}
		line := data[off : off+nl]
		rec, ok := parseLine(line)
		if !ok {
			break
		}
		recs = append(recs, rec)
		off += nl + 1
	}
	return recs, off
}

// parseLine validates one journal line: checksum, then JSON, then shape.
func parseLine(line []byte) (Record, bool) {
	var rec Record
	// "%08x body": 8 hex digits, one space, at least "{}".
	if len(line) < 11 || line[8] != ' ' {
		return rec, false
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return rec, false
	}
	body := line[9:]
	if crc32.ChecksumIEEE(body) != want {
		return rec, false
	}
	if err := json.Unmarshal(body, &rec); err != nil || rec.Cell == "" {
		return Record{}, false
	}
	return rec, true
}

// Append queues one record, checksummed, for the writer. It makes no
// syscall and never waits on I/O; the record is durable once Sync returns
// nil. Safe for concurrent use by sweep workers.
func (j *Journal) Append(rec Record) error {
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("campaign: encode journal record: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if j.closing {
		return errors.New("campaign: append to a closed journal")
	}
	j.queue = fmt.Appendf(j.queue, "%08x %s\n", crc32.ChecksumIEEE(body), body)
	j.queued++
	j.appended++
	j.wake.Signal()
	return nil
}

// Sync waits until every record appended before the call is written and
// fsynced, and returns the journal's sticky error, if any.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	target := j.appended
	j.syncWant = max(j.syncWant, target)
	j.wake.Signal()
	for j.durable < target && j.err == nil {
		j.progress.Wait()
	}
	return j.err
}

// Close syncs the journal, stops its writer and closes the file.
func (j *Journal) Close() error {
	j.mu.Lock()
	j.closing = true
	j.wake.Signal()
	j.mu.Unlock()
	<-j.done
	j.mu.Lock()
	err := j.err
	j.mu.Unlock()
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("campaign: close journal: %w", cerr)
	}
	return err
}

// notify makes the writer call fn with each record count it makes durable,
// in rising order, before Sync can see that count. Set it before the first
// Append.
func (j *Journal) notify(fn func(depth int)) {
	j.mu.Lock()
	j.onDurable = fn
	j.mu.Unlock()
}

// writer owns the file: it takes the queue a batch at a time, writes it
// with one call and fsyncs per the policy, until Close has drained
// everything or an error stops it.
func (j *Journal) writer() {
	defer close(j.done)
	var batch []byte
	j.mu.Lock()
	written, durable := j.durable, j.durable
	for j.err == nil {
		force := j.closing || j.syncWant > durable
		if j.queued == 0 && (written == durable || !force) {
			if j.closing {
				break
			}
			j.wake.Wait()
			continue
		}
		batch, j.queue = j.queue, batch[:0]
		n := j.queued
		j.queued = 0
		onDurable := j.onDurable
		j.mu.Unlock()

		var err error
		if len(batch) > 0 {
			if _, werr := j.f.Write(batch); werr != nil {
				err = fmt.Errorf("campaign: append journal record: %w", werr)
			} else {
				written += n
			}
		}
		if err == nil && written > durable && (force || j.fsyncEvery <= 1 || written-durable >= j.fsyncEvery) {
			if serr := j.f.Sync(); serr != nil {
				err = fmt.Errorf("campaign: fsync journal: %w", serr)
			} else {
				if onDurable != nil {
					for d := durable + 1; d <= written; d++ {
						onDurable(d)
					}
				}
				durable = written
			}
		}

		j.mu.Lock()
		j.durable = durable
		if err != nil {
			j.err = err
		}
		j.progress.Broadcast()
	}
	j.mu.Unlock()
}
