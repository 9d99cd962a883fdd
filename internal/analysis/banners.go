package analysis

import (
	"sort"

	"repro/internal/origin"
	"repro/internal/proto"
	"repro/internal/results"
)

// BannerCount is one entry of the banner census.
type BannerCount struct {
	Banner string
	Hosts  int
	Share  float64
}

// BannerCensus tallies application banners over a scan — the Censys-style
// view that ZGrab's handshakes exist to produce (HTTP Server headers, TLS
// cipher suites, SSH software versions). Returns the top-n banners by host
// count plus the total number of hosts with a banner.
func BannerCensus(ds *results.Dataset, p proto.Protocol, o origin.ID, trial, topN int) ([]BannerCount, int) {
	s := ds.Scan(o, p, trial)
	if s == nil {
		return nil, 0
	}
	counts := map[string]int{}
	total := 0
	s.Each(func(r results.HostRecord) {
		if !r.L7 || r.Banner == "" {
			return
		}
		counts[r.Banner]++
		total++
	})
	out := make([]BannerCount, 0, len(counts))
	for b, n := range counts {
		out = append(out, BannerCount{Banner: b, Hosts: n, Share: float64(n) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Hosts != out[j].Hosts {
			return out[i].Hosts > out[j].Hosts
		}
		return out[i].Banner < out[j].Banner
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out, total
}
