// Package topology implements HOG's site awareness: the extension of Hadoop
// rack awareness to grid sites (paper §III.B.1).
//
// On the real OSG, HOG configures Hadoop's topology.script.file.name with a
// script that maps a worker's DNS name to a "rack" identifier derived from
// the last two labels of the hostname (workername.site.edu -> site.edu). The
// namenode and jobtracker then treat each site as a failure domain. This
// package reimplements that script as a library function. Hadoop caches the
// script's answers (CachedDNSToSwitchMapping); the simulator needs no cache,
// since every node registers once under a fresh hostname.
package topology

import "strings"

// DefaultRack is returned for hostnames SiteFromHostname cannot classify, mirroring
// Hadoop's /default-rack behaviour for unresolvable nodes.
const DefaultRack = "default-rack"

// SiteFromHostname implements the paper's site detection rule: worker nodes
// are grouped by the last two DNS labels of their public hostname. Inputs
// without at least two labels (bare hostnames, IP-like strings with no dots)
// fall back to DefaultRack so that unknown nodes share one failure domain
// rather than each becoming a singleton "site".
func SiteFromHostname(host string) string {
	host = strings.TrimSuffix(strings.TrimSpace(host), ".")
	if host == "" {
		return DefaultRack
	}
	labels := strings.Split(host, ".")
	if len(labels) < 2 {
		return DefaultRack
	}
	a, b := labels[len(labels)-2], labels[len(labels)-1]
	if a == "" || b == "" {
		return DefaultRack
	}
	return strings.ToLower(a + "." + b)
}
