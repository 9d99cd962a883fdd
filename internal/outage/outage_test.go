package outage

import (
	"testing"
	"time"

	"repro/internal/asn"
	"repro/internal/ip"
	"repro/internal/origin"
	"repro/internal/rng"
)

func genSchedule(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	ases := make([]asn.ASN, 50)
	weights := make([]uint64, 50)
	for i := range ases {
		ases[i] = asn.ASN(i + 1)
		weights[i] = uint64(100 * (i + 1))
	}
	return Generate(rng.NewKey(1).Derive("outage"), cfg, 3, origin.StudySet(), ases, weights)
}

func TestGenerateDeterministic(t *testing.T) {
	s1 := genSchedule(t, Config{})
	s2 := genSchedule(t, Config{})
	if len(s1.Events()) != len(s2.Events()) {
		t.Fatal("schedules differ in size")
	}
	for i := range s1.Events() {
		e1, e2 := s1.Events()[i], s2.Events()[i]
		if e1.AS != e2.AS || e1.Start != e2.Start || e1.Trial != e2.Trial {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestEventsWithinScanWindow(t *testing.T) {
	s := genSchedule(t, Config{})
	for _, e := range s.Events() {
		if e.Start < 0 || e.Start+e.Duration > 21*time.Hour {
			t.Errorf("event outside scan window: %+v", e)
		}
		if e.Trial < 0 || e.Trial > 2 {
			t.Errorf("bad trial: %+v", e)
		}
		if e.Severity <= 0 || e.Severity > 1 {
			t.Errorf("bad severity: %+v", e)
		}
		if len(e.Origins) == 0 {
			t.Errorf("event with no origins: %+v", e)
		}
	}
}

func TestOriginCountDistribution(t *testing.T) {
	// ~60% of bursts single-origin, >=91% within three origins (paper).
	s := genSchedule(t, Config{EventsPerTrial: 1000})
	single, within3, total := 0, 0, 0
	for _, e := range s.Events() {
		total++
		if len(e.Origins) == 1 {
			single++
		}
		if len(e.Origins) <= 3 {
			within3++
		}
	}
	if total == 0 {
		t.Fatal("no events generated")
	}
	fSingle := float64(single) / float64(total)
	f3 := float64(within3) / float64(total)
	if fSingle < 0.5 || fSingle > 0.7 {
		t.Errorf("single-origin fraction %v, want ~0.6", fSingle)
	}
	if f3 < 0.88 {
		t.Errorf("within-3 fraction %v, want >=0.91-ish", f3)
	}
}

func TestAffectedRespectsWindowAndOrigin(t *testing.T) {
	s := genSchedule(t, Config{EventsPerTrial: 200})
	evs := s.Events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	// Find a high-severity event and check inside/outside behaviour.
	var ev Event
	found := false
	for _, e := range evs {
		if e.Severity > 0.9 {
			ev, found = e, true
			break
		}
	}
	if !found {
		t.Skip("no high-severity event in sample")
	}
	mid := ev.Start + ev.Duration/2
	o := ev.Origins[0]
	hits := 0
	for dst := uint32(0); dst < 2000; dst++ {
		if s.Affected(ev.Trial, o, ev.AS, ip.AddrFrom4(dst), mid) {
			hits++
		}
	}
	if hits < 1000 {
		t.Errorf("high-severity event hit only %d/2000 hosts", hits)
	}
	// Outside the window: nothing (unless another event overlaps; use
	// a time far away and verify the count drops dramatically).
	before := ev.Start - time.Minute
	if before > 0 {
		miss := 0
		for dst := uint32(0); dst < 2000; dst++ {
			if s.Affected(ev.Trial, o, ev.AS, ip.AddrFrom4(dst), before) {
				miss++
			}
		}
		if miss >= hits {
			t.Errorf("outside window affected %d >= inside %d", miss, hits)
		}
	}
	// Wrong trial: never affected by this event's window.
	otherTrial := (ev.Trial + 1) % 3
	_ = otherTrial // trial independence is covered by ActiveEvents below.
	if got := s.ActiveEvents(ev.Trial, ev.AS, mid); len(got) == 0 {
		t.Error("ActiveEvents missed the active event")
	}
}

func TestWideEvent(t *testing.T) {
	cfg := Config{
		EventsPerTrial: 1, // keep ordinary noise minimal
		WideEvents: []WideEvent{{
			Trial: 2, Origin: origin.BR,
			Start: 10 * time.Hour, Duration: time.Hour,
			ASFraction: 0.4, Severity: 0.9,
		}},
	}
	s := genSchedule(t, cfg)
	// Count affected ASes for BR at 10.5h in trial 2.
	affectedASes := 0
	for as := asn.ASN(1); as <= 50; as++ {
		hit := false
		for dst := uint32(0); dst < 200 && !hit; dst++ {
			if s.Affected(2, origin.BR, as, ip.AddrFrom4(dst), 10*time.Hour+30*time.Minute) {
				hit = true
			}
		}
		if hit {
			affectedASes++
		}
	}
	if affectedASes < 10 || affectedASes > 35 {
		t.Errorf("wide event affected %d/50 ASes, want ~20", affectedASes)
	}
	// Other origins must be untouched by the wide event at that time.
	for as := asn.ASN(1); as <= 50; as++ {
		for dst := uint32(0); dst < 50; dst++ {
			if s.Affected(2, origin.JP, as, ip.AddrFrom4(dst), 10*time.Hour+30*time.Minute) {
				// Could be an ordinary event; verify it is.
				if len(s.ActiveEvents(2, as, 10*time.Hour+30*time.Minute)) == 0 {
					t.Fatalf("wide event leaked to JP (AS%d)", as)
				}
			}
		}
	}
}

func TestEmptyASListYieldsEmptySchedule(t *testing.T) {
	s := Generate(rng.NewKey(2), Config{}, 3, origin.StudySet(), nil, nil)
	if len(s.Events()) != 0 {
		t.Error("schedule should be empty with no ASes")
	}
	if s.Affected(0, origin.AU, 1, ip.AddrFrom4(1), time.Hour) {
		t.Error("empty schedule affected a host")
	}
}

func TestLargeASesAttractMoreEvents(t *testing.T) {
	s := genSchedule(t, Config{EventsPerTrial: 2000})
	countSmall, countLarge := 0, 0
	for _, e := range s.Events() {
		if e.AS <= 10 {
			countSmall++
		}
		if e.AS > 40 {
			countLarge++
		}
	}
	if countLarge <= countSmall {
		t.Errorf("weighted sampling: large ASes got %d events vs small %d", countLarge, countSmall)
	}
}

// TestPathOutagesMatchSchedule pins the per-path view the fabric's plans
// hold to Schedule.Affected: for every trial × origin × AS of a schedule
// with ordinary and wide events, the two agree on a host sample at every
// event's window edges (t == Start is inside, t == Start+Duration is
// outside), one tick either side of them, and a spread of times between.
func TestPathOutagesMatchSchedule(t *testing.T) {
	s := genSchedule(t, Config{
		EventsPerTrial: 120,
		WideEvents: []WideEvent{
			{Trial: 2, Origin: origin.BR, Start: 9 * time.Hour, Duration: time.Hour, ASFraction: 0.39, Severity: 0.5},
			{Trial: 0, Origin: origin.AU, Start: 0, Duration: 30 * time.Minute, ASFraction: 1, Severity: 1},
		},
	})
	var times []time.Duration
	edges := func(start, dur time.Duration) {
		times = append(times, start-1, start, start+1, start+dur/2, start+dur-1, start+dur, start+dur+1)
	}
	for _, e := range s.Events() {
		edges(e.Start, e.Duration)
	}
	for _, w := range s.wide {
		edges(w.Start, w.Duration)
	}
	// Keep the grid affordable: every 7th edge plus an hourly sweep.
	grid := make([]time.Duration, 0, len(times)/7+22)
	for i := 0; i < len(times); i += 7 {
		grid = append(grid, times[i])
	}
	for h := 0; h <= 21; h++ {
		grid = append(grid, time.Duration(h)*time.Hour)
	}
	hosts := []ip.Addr{ip.AddrFrom4(7), ip.AddrFrom4(0x0a000001), ip.AddrFrom4(0xc0a80101), ip.AddrFrom4(0xfffffffe)}
	affected, nonEmpty := 0, 0
	for trial := 0; trial < 4; trial++ {
		for _, o := range append(origin.StudySet(), origin.CARINET) {
			for as := asn.ASN(1); as <= 51; as++ {
				p := s.Path(trial, o, as)
				if len(p.events) > 0 {
					nonEmpty++
				}
				for _, at := range grid {
					for _, dst := range hosts {
						got, want := p.Affected(dst, at), s.Affected(trial, o, as, dst, at)
						if got != want {
							t.Fatalf("trial %d %v AS%d %v at %v: path says %v, schedule %v", trial, o, as, dst, at, got, want)
						}
						if got {
							affected++
						}
					}
				}
			}
		}
	}
	if affected == 0 || nonEmpty == 0 {
		t.Fatalf("differential is vacuous: %d affected draws over %d non-empty paths", affected, nonEmpty)
	}
}

// TestPathOutagesWindowEdges checks the half-open window [Start,
// Start+Duration) by hand on full-severity events, one ordinary and one wide.
func TestPathOutagesWindowEdges(t *testing.T) {
	s := &Schedule{byTrialAS: make(map[trialAS][]int)}
	s.add(Event{Trial: 1, Origins: origin.Set{origin.DE}, AS: 5, Start: time.Hour, Duration: time.Minute, Severity: 1})
	s.wide = []WideEvent{{Trial: 1, Origin: origin.DE, Start: 2 * time.Hour, Duration: time.Hour, ASFraction: 1, Severity: 1}}
	p := s.Path(1, origin.DE, 5)
	dst := ip.AddrFrom4(99)
	for _, tc := range []struct {
		at   time.Duration
		want bool
	}{
		{time.Hour - 1, false}, {time.Hour, true}, {time.Hour + time.Minute - 1, true}, {time.Hour + time.Minute, false},
		{2*time.Hour - 1, false}, {2 * time.Hour, true}, {3*time.Hour - 1, true}, {3 * time.Hour, false},
	} {
		if got := p.Affected(dst, tc.at); got != tc.want || got != s.Affected(1, origin.DE, 5, dst, tc.at) {
			t.Errorf("t=%v: path affected = %v, want %v (schedule %v)", tc.at, got, tc.want, s.Affected(1, origin.DE, 5, dst, tc.at))
		}
	}
	for _, other := range []PathOutages{s.Path(0, origin.DE, 5), s.Path(1, origin.AU, 5)} {
		if other.Affected(dst, time.Hour) || other.Affected(dst, 2*time.Hour) {
			t.Error("an event leaked onto another trial's or origin's path")
		}
	}
	if ordinary := s.Path(1, origin.DE, 6); ordinary.Affected(dst, time.Hour) || !ordinary.Affected(dst, 2*time.Hour) {
		t.Error("AS 6 should see only the wide event")
	}
}

// TestHoistedKeysMatchDerive pins the severity and wide-event draws to the
// expressions they were before the sub-keys were derived once in Generate.
func TestHoistedKeysMatchDerive(t *testing.T) {
	s := genSchedule(t, Config{})
	key := rng.NewKey(1).Derive("outage") // genSchedule's
	for label, got := range map[string]rng.Key{"sev": s.sevKey, "wide-as": s.wideASKey, "wide-sev": s.wideSevKey} {
		if want := key.Derive(label); got != want {
			t.Errorf("hoisted %q key differs from key.Derive(%q)", label, label)
		}
		for i := uint64(0); i < 64; i++ {
			if got.Float64(i, i*2654435761) != key.Derive(label).Float64(i, i*2654435761) {
				t.Fatalf("%q draw %d differs", label, i)
			}
		}
	}
}
