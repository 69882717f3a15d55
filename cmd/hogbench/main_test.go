package main

import (
	"strings"
	"testing"

	"hog/internal/harness"
)

// TestListTextCoversRegistries pins -list to the registry it renders: every
// harness experiment id (plus the table4 alias) must appear.
func TestListTextCoversRegistries(t *testing.T) {
	out := listText()
	for _, s := range harness.Specs() {
		if !strings.Contains(out, s.ID) {
			t.Errorf("-list output missing experiment %q", s.ID)
		}
	}
	if !strings.Contains(out, "table4") {
		t.Error("-list output missing the table4 alias")
	}
}
