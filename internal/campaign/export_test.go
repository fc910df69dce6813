package campaign

import "testing"

// closeFile closes the journal's file under its running writer, the way a
// failing disk surfaces: every later write and fsync returns an error.
func (j *Journal) closeFile() error { return j.f.Close() }

// onJournalOpened makes Run hand fn the journal it opens, for the rest of
// the test.
func onJournalOpened(t *testing.T, fn func(*Journal)) {
	journalOpened = fn
	t.Cleanup(func() { journalOpened = nil })
}
