// The progress sink: a periodic single-line status report on stderr (or
// any writer) summarizing a running study — scans done/total, cumulative
// probes, the current rate and an ETA, plus peak RSS. While a sweep is
// driving the probe counters the rate/ETA read out in probes; once the
// sweep completes and the grab stage takes over (probe rate zero, grab
// completions rising) the readout switches to grab-host completions,
// which is what actually bounds the remaining wall time. It reads only the registry's aggregate
// counters, so it works for serial and parallel runs alike, and `-quiet`
// simply never starts it.
package telemetry

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Progress periodically renders a one-line status to w until stopped.
type Progress struct {
	reg   *Registry
	w     io.Writer
	every time.Duration

	mu        sync.Mutex
	lastT     time.Time
	lastSent  uint64
	lastGrabs uint64
	maxLen    int
	stop      chan struct{}
	done      chan struct{}
	wroteLine bool
}

// StartProgress launches the progress loop, emitting a line every interval
// (default 2s when interval <= 0). Returns nil — and starts nothing — when
// reg or w is nil, so callers can unconditionally defer Stop.
func StartProgress(reg *Registry, w io.Writer, interval time.Duration) *Progress {
	if reg == nil || w == nil {
		return nil
	}
	if interval <= 0 {
		interval = 2 * time.Second
	}
	p := &Progress{
		reg:   reg,
		w:     w,
		every: interval,
		lastT: time.Now(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go p.loop()
	return p
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.every)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			p.emit(now)
		}
	}
}

func (p *Progress) emit(now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	line := p.line(now)
	// Carriage return keeps the live status to one terminal line; each
	// emission overwrites the last, padded to the longest line written so
	// far so a shorter line leaves no residue.
	if len(line) > p.maxLen {
		p.maxLen = len(line)
	}
	fmt.Fprintf(p.w, "\r%-*s", p.maxLen, line)
	p.wroteLine = true
}

// line renders the status for the given instant, updating the rate window.
// Exposed to tests through direct calls in telemetry_test.go.
func (p *Progress) line(now time.Time) string {
	sent := p.reg.CounterSum(MetricProbesSent)
	grabs := p.reg.CounterSum(MetricGrabHostsDone)
	rate, grabRate := float64(0), float64(0)
	if dt := now.Sub(p.lastT).Seconds(); dt > 0 {
		rate = float64(sent-p.lastSent) / dt
		grabRate = float64(grabs-p.lastGrabs) / dt
	}
	p.lastT, p.lastSent, p.lastGrabs = now, sent, grabs

	done := p.reg.CounterSum(MetricScansDone)
	total := p.reg.GaugeSum(MetricScansTotal)
	elapsed := now.Sub(p.reg.Start())

	// The sweep went quiet while grab completions are still climbing: the
	// grab stage owns the remaining wall time, so rate and ETA read out in
	// grab-host completions instead of probes.
	grabPhase := rate == 0 && grabRate > 0

	var b strings.Builder
	fmt.Fprintf(&b, "scans %d/%d", done, total)
	fmt.Fprintf(&b, " · %s probes", siCount(sent))
	if grabPhase {
		grabTotal := p.reg.GaugeSum(MetricGrabHosts)
		fmt.Fprintf(&b, " · grabs %s/%s · %s grabs/s",
			siCount(grabs), siCount(uint64(grabTotal)), siCount(uint64(grabRate)))
	} else {
		fmt.Fprintf(&b, " · %s probes/s", siCount(uint64(rate)))
	}
	switch {
	case grabPhase:
		if backlog := p.reg.GaugeSum(MetricGrabHosts) - int64(grabs); backlog > 0 {
			remaining := time.Duration(float64(backlog) / grabRate * float64(time.Second))
			fmt.Fprintf(&b, " · ETA %s", remaining.Round(time.Second))
		}
	case total > 0 && done > 0 && int64(done) < total:
		remaining := time.Duration(float64(elapsed) * float64(total-int64(done)) / float64(done))
		fmt.Fprintf(&b, " · ETA %s", remaining.Round(time.Second))
	case total > 0 && int64(done) >= total:
		b.WriteString(" · done")
	}
	if rss, ok := PeakRSSBytes(); ok {
		fmt.Fprintf(&b, " · rss %s", siBytes(rss))
	}
	return b.String()
}

// Stop halts the loop and, if any status line was written, terminates it
// with a newline so subsequent output starts clean. Safe on nil.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.mu.Lock()
	if p.wroteLine {
		fmt.Fprintln(p.w)
	}
	p.mu.Unlock()
}

// siCount renders a count with an SI suffix (12.3M), keeping the progress
// line narrow at production probe volumes.
func siCount(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.1fG", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// siBytes renders a byte count with a binary suffix (123.4MiB), matching
// the -mem-budget flag's units.
func siBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
