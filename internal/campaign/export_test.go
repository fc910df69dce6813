package campaign

import "testing"

// closeFile closes the journal's file under its running writer, the way a
// failing disk surfaces: every later write and fsync returns an error.
func (j *Journal) closeFile() error { return j.f.Close() }

// onJournalOpened makes Open hand fn each journal it opens, for the rest
// of the test.
func onJournalOpened(t *testing.T, fn func(*Journal)) {
	journalOpened = fn
	t.Cleanup(func() { journalOpened = nil })
}

// Internals the external crash-injection harness (crash_test.go) uses: it
// runs fault campaigns too, and internal/faults imports this package.
var (
	CrashSpace      = crashSpace
	FirstDiff       = firstDiff
	OnJournalOpened = onJournalOpened
)

// JournalRecords counts the valid records in a journal's bytes: the ones
// a resume would find.
func JournalRecords(data []byte) int {
	recs, _ := parseRecords(data)
	return len(recs)
}
