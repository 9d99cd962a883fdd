package world

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"
)

// worldDigest is a SHA-256 over everything a build decides: the FIB's
// directory, ranks, blocks, mixed entries and host masks; every AS with its
// prefixes in announcement order; the FIB's interned country list; the host
// counters; and, when the build retains them, the host slice, the IPv6
// lookup tables and the hitlist. Two builds with the same digest are the
// same world, bit for bit.
func worldDigest(w *World) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...uint64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		if len(buf) >= 1<<16 {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	putStr := func(s string) {
		put(uint64(len(s)))
		buf = append(buf, s...)
	}
	f := w.FIB()
	put(uint64(w.SpaceBits), uint64(len(f.dir)))
	put(f.dir...)
	put(uint64(len(f.dirRank)))
	for _, r := range f.dirRank {
		put(uint64(r))
	}
	put(uint64(len(f.blocks)))
	for i := range f.blocks {
		b := &f.blocks[i]
		put(b.present[:]...)
		put(uint64(b.maskOff), uint64(uint32(b.asIdx)), uint64(uint32(b.ctryIdx)), uint64(uint32(b.mixedOff)))
	}
	put(uint64(len(f.mixed)))
	for _, e := range f.mixed {
		put(uint64(uint32(e.as))<<32 | uint64(uint32(e.ctry)))
	}
	put(uint64(len(f.masks)))
	for _, m := range f.masks {
		put(uint64(m))
	}
	put(uint64(len(f.table6)))
	for _, s := range f.table6 {
		put(s.base.Hi(), s.base.Lo(), uint64(uint32(s.idx)))
	}
	put(uint64(len(f.spans6)))
	for _, s := range f.spans6 {
		put(s.first.Hi(), s.first.Lo(), s.last.Hi(), s.last.Lo(), uint64(uint32(s.asIdx)), uint64(uint32(s.ctryIdx)))
	}
	ases := w.Routes.All()
	put(uint64(len(ases)))
	for _, a := range ases {
		put(uint64(a.Number), uint64(a.Kind), w.asHostCount[a.Number])
		putStr(a.Name)
		putStr(string(a.Country))
		put(uint64(len(a.Prefixes)))
		for _, p := range a.Prefixes {
			put(p.Base.Hi(), p.Base.Lo(), uint64(p.Bits))
		}
	}
	put(uint64(len(f.countries)))
	for _, c := range f.countries {
		putStr(string(c))
	}
	put(uint64(w.numHosts))
	for _, n := range w.counts {
		put(uint64(n))
	}
	put(uint64(len(w.hosts)))
	for _, x := range w.hosts {
		put(x.Addr.Hi(), x.Addr.Lo(), uint64(x.Services))
	}
	put(uint64(len(w.hitlist)))
	for _, a := range w.hitlist {
		put(a.Hi(), a.Lo())
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedWorlds are the builds TestWorldDigestPinned holds to fixed digests:
// streamed IPv4 worlds at bigscan's scale and at Scale 0.01, the retained
// host slice at matrix's scale, and the IPv6 world hitlist scans run on.
var pinnedWorlds = []struct {
	name   string
	spec   Spec
	v6     *V6Spec
	digest string
}{
	{name: "stream-0.0015", spec: Spec{Seed: 2020, Scale: 0.0015, StreamHosts: true},
		digest: "f3f5cfea0f1d5febfccae32a69c7b6855484856bb9d0a08fa5c178cf65c21de4"},
	{name: "stream-0.01", spec: Spec{Seed: 2020, Scale: 0.01, StreamHosts: true},
		digest: "e91a83ffa7e696ca1a1c04e9c21d8443d60fbb0730fba4374ff02fba2972bbf0"},
	{name: "retained-0.00003", spec: Spec{Seed: 2020, Scale: 0.00003},
		digest: "ceb3d63d4cbd7ba3d966548a3df6e2defe39831be3b91524ad39c72ee2b1f684"},
	{name: "v6-64x8x24", v6: &V6Spec{Seed: 2020, Providers: 64, IslandsPerProvider: 8, HostsPerIsland: 24},
		digest: "782e4b83a0744009932caceec484d26cf9e1f7697983440537527e513dbde800"},
}

func pinnedDigest(i int) (string, error) {
	pw := pinnedWorlds[i]
	var w *World
	var err error
	if pw.v6 != nil {
		w, err = BuildV6(context.Background(), *pw.v6)
	} else {
		w, err = Build(context.Background(), pw.spec)
	}
	if err != nil {
		return "", err
	}
	return worldDigest(w), nil
}

// TestWorldDigestPinned holds the world generator to the exact bytes it
// produced before its allocation rewrite: any change to placement order,
// RNG draws, FIB layout or interning order moves a digest.
func TestWorldDigestPinned(t *testing.T) {
	for i, pw := range pinnedWorlds {
		t.Run(pw.name, func(t *testing.T) {
			got, err := pinnedDigest(i)
			if err != nil {
				t.Fatal(err)
			}
			if got != pw.digest {
				t.Errorf("world digest %s, pinned %s", got, pw.digest)
			}
		})
	}
}

// TestBuildConcurrent runs three builds at once and holds each to its
// serial digest: a build owns all of its scratch, so concurrent builds
// cannot see each other's state.
func TestBuildConcurrent(t *testing.T) {
	idx := []int{0, 2, 3}
	got := make([]string, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for k, i := range idx {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = pinnedDigest(i)
		}()
	}
	wg.Wait()
	for k, i := range idx {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		want, err := pinnedDigest(i)
		if err != nil {
			t.Fatal(err)
		}
		if got[k] != want {
			t.Errorf("%s: concurrent digest %s, serial %s", pinnedWorlds[i].name, got[k], want)
		}
	}
}
