package topology

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSiteFromHostname(t *testing.T) {
	cases := []struct{ host, want string }{
		{"node17.fnal.gov", "fnal.gov"},
		{"worker003.cmsaf.mit.edu", "mit.edu"},
		{"a.b.c.d.ucsd.edu", "ucsd.edu"},
		{"host.aglt2.org", "aglt2.org"},
		{"Node17.FNAL.GOV", "fnal.gov"},
		{"node17.fnal.gov.", "fnal.gov"},
		{"localhost", DefaultRack},
		{"", DefaultRack},
		{"   ", DefaultRack},
		{".", DefaultRack},
		{"a..", DefaultRack},
		{"x.y", "x.y"},
	}
	for _, c := range cases {
		if got := SiteFromHostname(c.host); got != c.want {
			t.Errorf("SiteFromHostname(%q) = %q, want %q", c.host, got, c.want)
		}
	}
}

func TestSameSiteGrouping(t *testing.T) {
	hosts := []string{"w1.fnal.gov", "w2.fnal.gov", "w9.cms.fnal.gov"}
	want := "fnal.gov"
	for _, h := range hosts {
		if got := SiteFromHostname(h); got != want {
			t.Errorf("%q mapped to %q, want %q", h, got, want)
		}
	}
}

// Property: the site is always a suffix of the (lowercased) input for
// well-formed multi-label hostnames, and never contains whitespace.
func TestSiteSuffixProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		l1 := hostLabel(a)
		l2 := hostLabel(b)
		l3 := hostLabel(c)
		host := l1 + "." + l2 + "." + l3
		site := SiteFromHostname(host)
		return site == l2+"."+l3 && !strings.ContainsAny(site, " \t")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func hostLabel(b uint8) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	return string(alphabet[int(b)%len(alphabet)]) + string(alphabet[int(b/2)%len(alphabet)])
}
