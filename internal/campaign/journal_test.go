package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// recIDs lists the cell IDs of rec(0) through rec(n-1).
func recIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = rec(i, StatusOK).Cell
	}
	return ids
}

// readRecords decodes the valid records of the journal at path.
func readRecords(t *testing.T, path string) []Record {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines, _ := parseRecords(data)
	recs := make([]Record, len(lines))
	for i, l := range lines {
		if err := json.Unmarshal(l.body, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return recs
}

func rec(i int, st Status) Record {
	return Record{
		Cell:   fmt.Sprintf("%016x", uint64(i)+1),
		Params: Params{Kernel: "vvadd", Scale: 64, N: 1 << (i % 4), L2Ways: 8, L2MSHRs: 32, L2Banks: 8, LLCKB: 2048, DRAMLatency: 50},
		Status: st,
		Cycles: int64(1000 + i),
	}
}

// TestJournalRoundTrip: append N records, close, reopen — the same records
// come back in order and the journal keeps appending where it left off.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 5; i++ {
		r := rec(i, StatusOK)
		want = append(want, r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, 1, recIDs(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j2.prior) != 5 {
		t.Fatalf("Open kept %d records, want 5", len(j2.prior))
	}
	if got := readRecords(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip lost records:\n got  %+v\n want %+v", got, want)
	}
	extra := rec(5, StatusFailed)
	if err := j2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 6 || !reflect.DeepEqual(got[5], extra) {
		t.Fatalf("append-after-reopen lost the new record: %+v", got)
	}
}

// TestJournalOpenMissingFile: resuming with no prior journal is a fresh
// start, not an error — the first run and the resumed first run behave
// identically.
func TestJournalOpenMissingFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.log")
	j, err := Open(path, 1, recIDs(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.prior) != 0 {
		t.Fatalf("fresh journal yielded %d records", len(j.prior))
	}
	if err := j.Append(rec(0, StatusOK)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalTornTailEveryOffset is the torn-write recovery sweep: truncate
// the journal at EVERY byte offset spanning the last record and resume.
// Whatever the cut point, Open must recover exactly the fully-written
// records — never a corrupt or duplicated one — and leave the file ready
// for clean appends.
func TestJournalTornTailEveryOffset(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "full.log")
	j, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for i := 0; i < 3; i++ {
		r := rec(i, StatusOK)
		recs = append(recs, r)
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, prefix := parseRecords(data)
	// Find where the last record starts: reparse the file minus its final
	// line.
	if prefix != len(data) {
		t.Fatalf("intact journal parses only %d/%d bytes", prefix, len(data))
	}
	lastStart := 0
	for i := len(data) - 2; i >= 0; i-- { // skip final newline
		if data[i] == '\n' {
			lastStart = i + 1
			break
		}
	}

	for cut := lastStart; cut <= len(data); cut++ {
		torn := filepath.Join(dir, fmt.Sprintf("torn-%d.log", cut))
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, err := Open(torn, 1, recIDs(10), nil)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		wantN := 2
		if cut == len(data) {
			wantN = 3 // the full file: nothing torn
		}
		if got := readRecords(t, torn); len(j2.prior) != wantN || !reflect.DeepEqual(got, recs[:wantN]) {
			t.Fatalf("cut at %d: recovered %d records, want the %d intact ones", cut, len(got), wantN)
		}
		// The journal must now be clean: an append lands after the
		// truncation point and the whole file reparses with no torn bytes.
		replay := rec(9, StatusOK)
		if err := j2.Append(replay); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if err := j2.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := os.ReadFile(torn)
		if err != nil {
			t.Fatal(err)
		}
		if _, valid := parseRecords(after); valid != len(after) {
			t.Fatalf("cut at %d: recovered journal still has torn bytes", cut)
		}
		if reparsed := readRecords(t, torn); len(reparsed) != wantN+1 || !reflect.DeepEqual(reparsed[wantN], replay) {
			t.Fatalf("cut at %d: replayed journal holds %d records, want %d", cut, len(reparsed), wantN+1)
		}
	}
}

// TestJournalChecksumGuard: a flipped byte inside a record invalidates that
// line and everything after it — corruption is contained by re-running, not
// silently decoded.
func TestJournalChecksumGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Create(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(rec(i, StatusOK)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the second record's JSON body.
	second := 0
	for i, b := range data {
		if b == '\n' {
			second = i + 1
			break
		}
	}
	data[second+20] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(path, 1, recIDs(3), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, ok := j2.prior[rec(0, StatusOK).Cell]; len(j2.prior) != 1 || !ok {
		t.Fatalf("checksum guard failed: recovered %d records", len(j2.prior))
	}
}

// TestJournalBatchedFsync: fsyncEvery > 1 defers syncs but Close flushes;
// the file is complete after Close regardless of batch boundary.
func TestJournalBatchedFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	j, err := Create(path, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ { // not a multiple of the batch
		if err := j.Append(rec(i, StatusOK)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readRecords(t, path); len(got) != 7 {
		t.Fatalf("batched journal holds %d records, want 7", len(got))
	}
}

// FuzzParseRecords feeds arbitrary bytes to the journal reader. It must
// never panic, must stop at a line boundary inside the input with every
// line before it a valid record, and must be idempotent under its own
// truncation: Open cuts a torn journal to the returned offset, and the cut
// file must parse to the same records. Seeded from the checked-in fixtures.
func FuzzParseRecords(f *testing.F) {
	for _, name := range []string{"journal-complete.log", "journal-corrupt-mid.log", "journal-torn-tail.log"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off := parseRecords(data)
		if off < 0 || off > len(data) {
			t.Fatalf("offset %d outside [0, %d]", off, len(data))
		}
		if off > 0 && data[off-1] != '\n' {
			t.Fatalf("offset %d is not at a line boundary", off)
		}
		if n := bytes.Count(data[:off], []byte{'\n'}); len(recs) != n {
			t.Fatalf("%d records from %d valid lines", len(recs), n)
		}
		again, off2 := parseRecords(data[:off])
		if off2 != off || !reflect.DeepEqual(again, recs) {
			t.Fatalf("re-parse of the first %d bytes: %d records to offset %d, want %d to %d",
				off, len(again), off2, len(recs), off)
		}
	})
}

// TestJournalErrorIsSticky: once the writer fails, the next Append, Sync
// and Close all return the failure, and the writer stops.
func TestJournalErrorIsSticky(t *testing.T) {
	j, err := Create(filepath.Join(t.TempDir(), "j.log"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0, StatusOK)); err != nil {
		t.Fatal(err)
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j.closeFile(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(1, StatusOK)); err != nil {
		t.Fatalf("Append before the writer fails: %v", err) // queued, not yet written
	}
	syncErr := j.Sync()
	if !errors.Is(syncErr, os.ErrClosed) {
		t.Fatalf("Sync after the write failed returned %v", syncErr)
	}
	if err := j.Append(rec(2, StatusOK)); err != syncErr {
		t.Errorf("Append after the failure returned %v, want the sticky %v", err, syncErr)
	}
	if err := j.Close(); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Close after the failure returned %v", err)
	}
}
