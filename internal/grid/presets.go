package grid

import (
	"fmt"

	"hog/internal/sim"
)

// ChurnProfile selects how hostile the grid is. The paper's Figure 5 shows
// two "stable" 55-node runs and one "unstable" run; profiles parameterise
// that difference.
type ChurnProfile int

// Churn profiles, from friendliest to most hostile.
const (
	// ChurnNone disables preemption entirely (used to isolate other effects).
	ChurnNone ChurnProfile = iota
	// ChurnStable models a quiet week: long node lifetimes, rare small
	// batch preemptions (Figures 5a/5b).
	ChurnStable
	// ChurnUnstable models contention from higher-priority users: shorter
	// lifetimes and frequent batch preemptions (Figure 5c).
	ChurnUnstable
)

// OSGSites returns the five sites from the paper's Condor submission file
// (Listing 1) with the given churn profile applied.
//
// Domains: the two Fermilab clusters (FNAL_FERMIGRID, USCMS-FNAL-WC1) really
// share the fnal.gov DNS suffix; we give the WC1 cluster a distinct synthetic
// domain so each site remains its own failure domain for site awareness.
// UCSDT2, AGLT2 and MIT_CMS use their hosting institutions' domains.
func OSGSites(profile ChurnProfile) []SiteConfig {
	sites := []SiteConfig{
		{Name: "FNAL_FERMIGRID", Domain: "fnal.gov", Capacity: 400},
		{Name: "USCMS-FNAL-WC1", Domain: "wc1-fnal.gov", Capacity: 350},
		{Name: "UCSDT2", Domain: "ucsd.edu", Capacity: 250},
		{Name: "AGLT2", Domain: "aglt2.org", Capacity: 200},
		{Name: "MIT_CMS", Domain: "mit.edu", Capacity: 150},
	}
	for i := range sites {
		sites[i].UplinkBps = 300e6 // ~2.4 Gbps WAN uplink per site
		sites[i].DownlinkBps = 300e6
		applyChurn(&sites[i], profile)
	}
	return sites
}

// applyChurn fills a site's preemption distributions for the profile.
func applyChurn(s *SiteConfig, profile ChurnProfile) {
	switch profile {
	case ChurnStable:
		s.NodeLifetime = sim.Dist{Mean: 14 * sim.Hour}
		s.BatchPreemptEvery = sim.Dist{Mean: 3 * sim.Hour}
		s.BatchPreemptFrac = 0.04
	case ChurnUnstable:
		s.NodeLifetime = sim.Dist{Mean: 90 * sim.Minute}
		s.BatchPreemptEvery = sim.Dist{Mean: 25 * sim.Minute}
		s.BatchPreemptFrac = 0.18
	}
}

// LargeGridSites returns a synthetic twelve-site, ~1300-slot grid for
// scale-out runs far beyond the paper's 180 nodes: the five OSG sites from
// Listing 1 plus seven more opportunistic pools patterned on large OSG
// resource providers. Uplinks stay at the OSG preset's 2.4 Gbps, so WAN
// contention grows with the pool exactly as the fluid-flow model predicts.
func LargeGridSites(profile ChurnProfile) []SiteConfig {
	sites := OSGSites(profile)
	extra := []SiteConfig{
		{Name: "BNL_ATLAS", Domain: "bnl.gov", Capacity: 180},
		{Name: "SLAC_OSG", Domain: "slac.stanford.edu", Capacity: 160},
		{Name: "PURDUE_RCAC", Domain: "purdue.edu", Capacity: 140},
		{Name: "NEBRASKA_HCC", Domain: "unl.edu", Capacity: 120},
		{Name: "WISC_CHTC", Domain: "wisc.edu", Capacity: 110},
		{Name: "TTU_ANTAEUS", Domain: "ttu.edu", Capacity: 90},
		{Name: "UFL_HPC", Domain: "ufl.edu", Capacity: 80},
	}
	for i := range extra {
		extra[i].UplinkBps = 300e6
		extra[i].DownlinkBps = 300e6
		applyChurn(&extra[i], profile)
	}
	return append(sites, extra...)
}

// MegaGridSites returns a synthetic forty-site, ~11,000-slot grid — the
// MEGA-GRID preset for ten-thousand-node runs, two orders of magnitude past
// the paper's 180 nodes. The first twelve sites are the LargeGridSites
// preset; the rest are patterned on the long tail of OSG resource
// providers, with capacities from 140 to 520 slots. Uplinks stay at the OSG
// preset's 2.4 Gbps, so WAN contention grows with the pool exactly as the
// fluid-flow model predicts — at this scale the simulation itself is the
// benchmark: tens of thousands of clustered periodic timers are what the
// timing-wheel engine exists for.
func MegaGridSites(profile ChurnProfile) []SiteConfig {
	sites := LargeGridSites(profile)
	extra := []SiteConfig{
		{Name: "CALTECH_T2", Domain: "caltech.edu", Capacity: 520},
		{Name: "FLORIDA_T2", Domain: "phys.ufl.edu", Capacity: 500},
		{Name: "NERSC_PDSF", Domain: "nersc.gov", Capacity: 480},
		{Name: "OU_OSCER", Domain: "ou.edu", Capacity: 470},
		{Name: "UCR_HEP", Domain: "ucr.edu", Capacity: 460},
		{Name: "IU_OSG", Domain: "iu.edu", Capacity: 450},
		{Name: "UCHICAGO_MWT2", Domain: "uchicago.edu", Capacity: 440},
		{Name: "VANDERBILT_ACCRE", Domain: "vanderbilt.edu", Capacity: 430},
		{Name: "RICE_RCSG", Domain: "rice.edu", Capacity: 420},
		{Name: "UMICH_AGLT2B", Domain: "umich.edu", Capacity: 410},
		{Name: "LSU_CCT", Domain: "lsu.edu", Capacity: 400},
		{Name: "RENCI_OSG", Domain: "renci.org", Capacity: 390},
		{Name: "CORNELL_CAC", Domain: "cornell.edu", Capacity: 280},
		{Name: "UCSB_CSC", Domain: "ucsb.edu", Capacity: 270},
		{Name: "BUFFALO_CCR", Domain: "buffalo.edu", Capacity: 260},
		{Name: "UVA_ITC", Domain: "virginia.edu", Capacity: 250},
		{Name: "CLEMSON_PALMETTO", Domain: "clemson.edu", Capacity: 245},
		{Name: "UTA_SWT2", Domain: "uta.edu", Capacity: 240},
		{Name: "OSU_OSC", Domain: "osu.edu", Capacity: 230},
		{Name: "UNM_CARC", Domain: "unm.edu", Capacity: 220},
		{Name: "UIOWA_HPC", Domain: "uiowa.edu", Capacity: 210},
		{Name: "UMISS_HPC", Domain: "olemiss.edu", Capacity: 200},
		{Name: "COLORADO_RC", Domain: "colorado.edu", Capacity: 190},
		{Name: "UKY_LCC", Domain: "uky.edu", Capacity: 180},
		{Name: "DUKE_SCSC", Domain: "duke.edu", Capacity: 170},
		{Name: "GATECH_PACE", Domain: "gatech.edu", Capacity: 160},
		{Name: "USC_HPCC", Domain: "usc.edu", Capacity: 150},
		{Name: "ND_CRC", Domain: "nd.edu", Capacity: 140},
	}
	for i := range extra {
		extra[i].UplinkBps = 300e6
		extra[i].DownlinkBps = 300e6
		applyChurn(&extra[i], profile)
	}
	return append(sites, extra...)
}

// GigaGridSites returns a synthetic ~104-site, ~100,000-slot grid — the
// GIGA-GRID preset for hundred-thousand-node runs, three orders of
// magnitude past the paper's 180 nodes. The first forty sites are the
// MegaGridSites preset; the other sixty-four are generated opportunistic
// pools patterned on a national-scale federation's mid-size providers, with
// capacities cycling through 1150–1640 slots (deterministic in the site
// index, so the preset is identical on every run). Uplinks stay at the OSG
// preset's 2.4 Gbps: WAN contention per site grows with pool size exactly
// as the fluid-flow model predicts, which is what keeps cross-site traffic
// honest at this scale.
func GigaGridSites(profile ChurnProfile) []SiteConfig {
	sites := MegaGridSites(profile)
	for i := 0; i < 64; i++ {
		s := SiteConfig{
			Name:        fmt.Sprintf("OSG_POOL_%02d", i),
			Domain:      fmt.Sprintf("pool%02d.osg-federation.org", i),
			Capacity:    1150 + 70*(i%8),
			UplinkBps:   300e6,
			DownlinkBps: 300e6,
		}
		applyChurn(&s, profile)
		sites = append(sites, s)
	}
	return sites
}

// DefaultPoolConfig returns HOG's worker configuration: one map and one
// reduce slot per node (§IV.A), 40 GB scratch disk, and a provisioning delay
// covering batch queue wait plus the 75 MB package download and startup.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{
		ProvisionDelay:   sim.Dist{Offset: 45 * sim.Second, Mean: 90 * sim.Second},
		DiskBytesPerNode: 250e9,
		MapSlots:         1,
		ReduceSlots:      1,
	}
}
