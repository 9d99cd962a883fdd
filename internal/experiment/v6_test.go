package experiment

// End-to-end IPv6 hitlist study: the same origins, the seeded v6 world,
// and scans that walk the hitlist instead of sweeping a space. These tests
// pin determinism (two identical configs → byte-identical datasets),
// serial/parallel equivalence, and the study outputs the v6 mode exists
// for — per-origin coverage and exclusivity over hitlist targets.

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
	"repro/internal/world"
)

func v6Config(seed uint64) Config {
	return Config{
		WorldSpec: world.Spec{Seed: seed},
		Family:    world.FamilyIPv6,
		V6Spec:    world.TestV6Spec(seed),
		Trials:    2,
		Protocols: []proto.Protocol{proto.HTTP, proto.SSH},
	}
}

var (
	v6Once sync.Once
	v6Stu  *Study
	v6DS   *results.Dataset
	v6Err  error
)

func v6Fixture(t *testing.T) (*Study, *results.Dataset) {
	t.Helper()
	v6Once.Do(func() {
		v6Stu, v6Err = NewStudy(context.Background(), v6Config(99))
		if v6Err != nil {
			return
		}
		v6DS, v6Err = v6Stu.Run(context.Background())
	})
	if v6Err != nil {
		t.Fatal(v6Err)
	}
	return v6Stu, v6DS
}

func TestV6StudyScansHitlistOnly(t *testing.T) {
	stu, ds := v6Fixture(t)
	hl := stu.World.Hitlist()
	inList := map[string]bool{}
	for _, a := range hl {
		inList[a.String()] = true
	}
	for _, o := range origin.StudySet() {
		s := ds.Scan(o, proto.HTTP, 0)
		if s == nil {
			t.Fatalf("missing v6 scan %v/HTTP/0", o)
		}
		if s.Targets != uint64(len(hl)) {
			t.Errorf("%v scanned %d targets, hitlist has %d", o, s.Targets, len(hl))
		}
		s.Each(func(r results.HostRecord) {
			if r.Addr.Is4() {
				t.Fatalf("%v recorded IPv4 address %v in a v6 scan", o, r.Addr)
			}
			if !inList[r.Addr.String()] {
				t.Fatalf("%v recorded %v, which is not on the hitlist", o, r.Addr)
			}
		})
	}
}

// TestV6StudyDeterministic is the v6 golden test: two independent studies
// from the same config produce byte-identical datasets — worldgen, hitlist
// shuffle, sweep, grab, and seal all included.
func TestV6StudyDeterministic(t *testing.T) {
	_, ds := v6Fixture(t)
	var a bytes.Buffer
	if err := ds.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	stu2, err := NewStudy(context.Background(), v6Config(99))
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := stu2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ds2.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical v6 studies produced different dataset bytes")
	}
}

// TestV6ParallelMatchesSerial is the v6 variant of the parallel-engine
// differential: four workers must seal one worker's bytes over the hitlist
// walk.
func TestV6ParallelMatchesSerial(t *testing.T) {
	_, serialDS := v6Fixture(t)
	cfg := v6Config(99)
	cfg.Parallelism = 4
	stu, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	parDS, err := stu.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serialDS.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parDS.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("parallel v6 study diverged from the serial reference")
	}
}

// TestV6CoverageAndExclusivity checks the study answers the paper's
// question in v6 form: every origin sees a meaningful fraction of the
// hitlist's live hosts, no origin sees everything (origin bias exists),
// and exclusivity attribution sums over the same union the coverage uses.
func TestV6CoverageAndExclusivity(t *testing.T) {
	_, ds := v6Fixture(t)
	gt := ds.GroundTruth(proto.HTTP, 0)
	if len(gt) == 0 {
		t.Fatal("v6 ground truth empty")
	}
	for _, a := range gt {
		if a.Is4() {
			t.Fatalf("v6 ground truth contains IPv4 address %v", a)
		}
	}
	tab := analysis.Coverage(ds, proto.HTTP)
	for _, o := range origin.StudySet() {
		m := tab.Mean(o, false)
		if m <= 0.2 || m > 1 {
			t.Errorf("origin %v mean HTTP coverage %.3f outside (0.2, 1]", o, m)
		}
	}
	cls := analysis.NewClassifier(ds, proto.HTTP)
	ex := analysis.Exclusive(cls)
	total := 0
	for _, hosts := range ex.Accessible {
		total += len(hosts)
	}
	if total > len(cls.Union()) {
		t.Errorf("exclusive hosts %d exceed union %d", total, len(cls.Union()))
	}
}

// TestV6ExternalHitlist pins the Config.Hitlist override: a study scanning
// a caller-supplied subset of the world's hitlist targets exactly that
// subset.
func TestV6ExternalHitlist(t *testing.T) {
	stu, _ := v6Fixture(t)
	sub := stu.World.Hitlist()[:64]
	cfg := v6Config(99)
	cfg.Trials = 1
	cfg.Protocols = []proto.Protocol{proto.HTTP}
	cfg.Hitlist = sub
	stu2, err := NewStudy(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := stu2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range origin.StudySet() {
		s := ds.Scan(o, proto.HTTP, 0)
		if s.Targets != uint64(len(sub)) {
			t.Errorf("%v scanned %d targets, want %d", o, s.Targets, len(sub))
		}
	}
}
