package analysis

import (
	"time"

	"repro/internal/asn"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/zgrab"
)

// SSHCause attributes why an SSH host was missed (§6, Figure 14).
type SSHCause uint8

const (
	// CauseAlibabaTemporal: the host is in a temporally-blocking network
	// and reset the connection after the TCP handshake.
	CauseAlibabaTemporal SSHCause = iota
	// CauseProbabilistic: MaxStartups-style — the host closed/reset on
	// this origin but completed an SSH handshake with another origin in
	// the same trial.
	CauseProbabilistic
	// CauseOther: transient path loss, blocking, or anything else.
	CauseOther
	numSSHCauses
)

var sshCauseNames = [...]string{"alibaba-temporal", "probabilistic-maxstartups", "other"}

// String returns the cause name.
func (c SSHCause) String() string {
	if int(c) < len(sshCauseNames) {
		return sshCauseNames[c]
	}
	return "cause(?)"
}

// SSHBreakdown is Figure 14 for one origin: missing SSH hosts by cause,
// summed over trials.
type SSHBreakdown struct {
	Origin origin.ID
	Counts [numSSHCauses]int
	// Missing is the total missing host-trials for the origin.
	Missing int
}

// SSHCauses computes Figure 14 from an SSH classifier. temporalASes lists
// the Alibaba-style networks (from the scenario).
func SSHCauses(c *Classifier, topo Topology, temporalASes []asn.ASN) []SSHBreakdown {
	ds, st := c.DS, c.spine(topo)
	isTemporal := map[asn.ASN]bool{}
	for _, a := range temporalASes {
		isTemporal[a] = true
	}
	var out []SSHBreakdown
	for _, o := range ds.Origins {
		b := SSHBreakdown{Origin: o}
		for t := 0; t < ds.Trials; t++ {
			s := ds.Scan(o, c.Proto, t)
			if s == nil {
				continue
			}
			addrs := s.Addrs()
			j := 0
			c.eachMissed(o, t, func(i int) {
				a := c.union[i]
				b.Missing++
				for j < len(addrs) && addrs[j].Less(a) {
					j++
				}
				ok := j < len(addrs) && addrs[j] == a
				var r results.HostRecord
				if ok {
					r = s.RecordAt(j)
				}
				as, _ := st.asOf(i)
				switch {
				case isTemporal[as] && ok && r.Fail == zgrab.FailReset:
					b.Counts[CauseAlibabaTemporal]++
				case ok && (r.Fail == zgrab.FailClosed || r.Fail == zgrab.FailReset) && c.seenByOther(o, i, t):
					// §6: "any IP that closes the connection after a
					// TCP handshake with at least one origin and
					// successfully completes an SSH handshake with
					// another" is probabilistic temporary blocking.
					b.Counts[CauseProbabilistic]++
				default:
					b.Counts[CauseOther]++
				}
			})
		}
		out = append(out, b)
	}
	return out
}

// seenByOther reports whether an origin other than self completed a
// handshake with union[i] in the trial.
func (c *Classifier) seenByOther(self origin.ID, i, trial int) bool {
	for _, o := range c.DS.Origins {
		if o != self && c.ok[o][trial].has(i) {
			return true
		}
	}
	return false
}

// HourlyOutcome is one bucket of Figure 12's Alibaba timeline.
type HourlyOutcome struct {
	Hour int
	// Attempted is how many hosts in the network were grabbed this hour.
	Attempted int
	// Reset counts connections reset after the TCP handshake.
	Reset int
}

// TemporalTimeline builds Figure 12 for one origin and trial: the hourly
// fraction of hosts in the given ASes whose SSH connections were reset.
func TemporalTimeline(ds *results.Dataset, topo Topology, ases []asn.ASN, o origin.ID, trial int, scanHours int) []HourlyOutcome {
	if scanHours <= 0 {
		scanHours = 21
	}
	want := map[asn.ASN]bool{}
	for _, a := range ases {
		want[a] = true
	}
	out := make([]HourlyOutcome, scanHours)
	for i := range out {
		out[i].Hour = i
	}
	s := ds.Scan(o, proto.SSH, trial)
	if s == nil {
		return out
	}
	s.Each(func(r results.HostRecord) {
		if r.ProbeMask == 0 {
			return
		}
		if as, ok := topo.ASOf(r.Addr); !ok || !want[as] {
			return
		}
		h := int(r.T / time.Hour)
		if h >= scanHours {
			h = scanHours - 1
		}
		out[h].Attempted++
		if r.Fail == zgrab.FailReset {
			out[h].Reset++
		}
	})
	return out
}
