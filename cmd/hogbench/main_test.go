package main

import (
	"sort"
	"strings"
	"testing"

	"hog/internal/harness"
)

// TestListTextCoversRegistries pins -list to the two registries it renders:
// every harness experiment id (plus the table4 alias) and every policy name
// must appear, and the policy listings must be sorted.
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
	for _, pf := range policyFlags() {
		if !strings.Contains(out, "-"+pf.flag) {
			t.Errorf("-list output missing policy flag -%s", pf.flag)
		}
		names := pf.names()
		if !sort.StringsAreSorted(names) {
			t.Errorf("-%s registry names not sorted: %v", pf.flag, names)
		}
		if len(names) < 2 {
			t.Errorf("-%s has %d registered policies, want at least a default and an alternative", pf.flag, len(names))
		}
		for _, n := range names {
			if !strings.Contains(out, n) {
				t.Errorf("-list output missing policy %q", n)
			}
		}
	}
}

// TestCheckPolicyName pins the friendly unknown-policy error.
func TestCheckPolicyName(t *testing.T) {
	pf := policyFlags()[0] // -sched
	if err := checkPolicyName(pf, ""); err != nil {
		t.Errorf("empty policy name should keep the default, got %v", err)
	}
	if err := checkPolicyName(pf, "fifo"); err != nil {
		t.Errorf("registered name rejected: %v", err)
	}
	err := checkPolicyName(pf, "nope")
	if err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, want := range []string{"nope", "-sched", "fifo", "fair"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
