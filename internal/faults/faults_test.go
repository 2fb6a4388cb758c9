package faults

import (
	"strings"
	"testing"
	"time"
)

func TestSetContains(t *testing.T) {
	cases := []struct {
		s    Set
		id   int
		want bool
	}{
		{Everyone(), 0, true},
		{Everyone(), 99, true},
		{Range(2, 5), 2, true},
		{Range(2, 5), 5, true},
		{Range(2, 5), 6, false},
		{List(1, 3), 3, true},
		{List(1, 3), 2, false},
		{Set{}, 0, false}, // empty
	}
	for i, c := range cases {
		if got := c.s.Contains(c.id); got != c.want {
			t.Errorf("case %d: Contains(%d) = %v, want %v", i, c.id, got, c.want)
		}
	}
	if !(Set{}).Empty() || Everyone().Empty() || Range(0, 3).Empty() || List(7).Empty() {
		t.Error("Empty misclassifies")
	}
}

// TestDecideDeterminism: Decide is a pure function — identical plans give
// identical verdicts regardless of call order or repetition, and different
// seeds give different burst patterns.
func TestDecideDeterminism(t *testing.T) {
	mk := func(seed int64) *Plan {
		return &Plan{Seed: seed, Window: 100 * time.Millisecond, Rules: []Rule{
			{Kind: LossBurst, At: 0, For: 10 * time.Second, Prob: 0.5, Src: Everyone(), Dst: Everyone()},
		}}
	}
	a, b := mk(7), mk(7)
	diff := 0
	for w := 0; w < 50; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		for src := 0; src < 4; src++ {
			for dst := 0; dst < 4; dst++ {
				d1 := a.Decide(src, dst, now)
				d2 := b.Decide(src, dst, now+33*time.Millisecond) // same window
				if d1 != d2 {
					t.Fatalf("same plan disagrees at (src=%d dst=%d win=%d)", src, dst, w)
				}
				if d1 != mk(8).Decide(src, dst, now) {
					diff++
				}
			}
		}
	}
	if diff == 0 {
		t.Error("seeds 7 and 8 produced identical burst patterns")
	}
}

// TestDecideBurstRate: the per-window loss draws hit the configured
// probability within sampling tolerance.
func TestDecideBurstRate(t *testing.T) {
	p := &Plan{Seed: 3, Window: time.Millisecond, Rules: []Rule{
		{Kind: LossBurst, At: 0, For: time.Hour, Prob: 0.3, Src: Everyone(), Dst: Everyone()},
	}}
	drops := 0
	const trials = 20000
	for w := 0; w < trials; w++ {
		if p.Decide(1, 2, time.Duration(w)*time.Millisecond).Drop {
			drops++
		}
	}
	rate := float64(drops) / trials
	if rate < 0.27 || rate > 0.33 {
		t.Errorf("burst rate %.3f, want ≈0.30", rate)
	}
}

// TestLossIsPerMessage: a Loss rule's coin is keyed on the sender's send
// ordinal, not on the instant or the window, so sends in one instant get
// independent draws at the configured rate, and the same ordinal gets the
// same draw whenever it is sent.
func TestLossIsPerMessage(t *testing.T) {
	p := &Plan{Seed: 3, Rules: []Rule{{Kind: Loss, For: forever, Prob: 0.3, Src: Everyone(), Dst: Everyone()}}}
	const sends = 20000
	drops := 0
	for ord := uint32(0); ord < sends; ord++ {
		d := p.DecideSend(1, 2, time.Second, ord)
		if d != p.DecideSend(1, 2, time.Hour, ord) {
			t.Fatalf("ordinal %d decided differently at another instant", ord)
		}
		if d.Drop {
			drops++
		}
	}
	if rate := float64(drops) / sends; rate < 0.28 || rate > 0.32 {
		t.Errorf("loss rate %.3f over %d same-instant sends, want ≈0.30", rate, sends)
	}
	// The interval still scopes the rule, without overflowing a late
	// forever rule's end.
	late := &Plan{Rules: []Rule{{Kind: Loss, At: time.Minute, For: forever, Prob: 1, Src: Everyone(), Dst: Everyone()}}}
	if late.DecideSend(0, 1, time.Second, 0).Drop || !late.DecideSend(0, 1, 2*time.Minute, 0).Drop {
		t.Error("a Loss rule from 1m dropped before it or spared a send after it")
	}
}

// TestLossy: the lossy plan appends one whole-run Loss rule to the given
// plan without touching it, takes its seed and window, and is the given
// plan itself at probability 0.
func TestLossy(t *testing.T) {
	if Lossy(nil, 5, 0) != nil {
		t.Error("a lossless run without faults got a plan")
	}
	base := &Plan{Seed: 7, Window: time.Second, Rules: []Rule{{Kind: Blackhole, For: time.Second, Src: List(0), Dst: List(1)}}}
	if Lossy(base, 5, 0) != base {
		t.Error("a lossless run did not keep its fault plan as is")
	}
	if p := Lossy(nil, 5, 0.1); p.Seed != 5 || len(p.Rules) != 1 || p.String() != "seed=5;loss:prob=0.1" {
		t.Errorf("loss-only plan %q, want seed=5;loss:prob=0.1", p.String())
	}
	p := Lossy(base, 5, 0.1)
	if p.Seed != 7 || p.Window != time.Second || len(p.Rules) != 2 || p.Rules[0].Kind != Blackhole || p.Rules[1].Kind != Loss {
		t.Errorf("lossy plan over a fault plan: %q", p.String())
	}
	if len(base.Rules) != 1 {
		t.Error("Lossy modified the plan it was given")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("lossy plan invalid: %v", err)
	}
}

func TestDecideScopes(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{
		{Kind: Blackhole, At: time.Second, For: time.Second, Src: List(1), Dst: List(2)},
		{Kind: Partition, At: 10 * time.Second, For: time.Second, Src: Range(0, 1), Dst: Range(2, 3)},
		{Kind: DelaySpike, At: 20 * time.Second, For: time.Second, ExtraMs: 50, Src: Everyone(), Dst: Everyone()},
		{Kind: Duplicate, At: 30 * time.Second, For: time.Second, Src: Everyone(), Dst: Everyone()},
	}}
	mid := 1500 * time.Millisecond
	if !p.Decide(1, 2, mid).Drop {
		t.Error("blackhole 1→2 not dropped")
	}
	if p.Decide(2, 1, mid).Drop {
		t.Error("blackhole dropped the reverse direction (must be asymmetric)")
	}
	if p.Decide(1, 2, 500*time.Millisecond).Drop || p.Decide(1, 2, 2*time.Second).Drop {
		t.Error("blackhole active outside its interval")
	}
	pm := 10500 * time.Millisecond
	if !p.Decide(0, 3, pm).Drop || !p.Decide(3, 0, pm).Drop {
		t.Error("partition must drop both directions")
	}
	if p.Decide(0, 1, pm).Drop || p.Decide(2, 3, pm).Drop {
		t.Error("partition dropped intra-side traffic")
	}
	if d := p.Decide(0, 1, 20500*time.Millisecond); d.ExtraMs != 50 {
		t.Errorf("spike extra = %v, want 50", d.ExtraMs)
	}
	if d := p.Decide(0, 1, 30500*time.Millisecond); !d.Dup {
		t.Error("duplicate window not flagged")
	}
	if d := p.Decide(0, 1, 25*time.Second); d != (Decision{}) {
		t.Errorf("quiet time got verdict %+v", d)
	}
	var nilPlan *Plan
	if d := nilPlan.Decide(0, 1, time.Second); d != (Decision{}) {
		t.Errorf("nil plan got verdict %+v", d)
	}
}

func TestNodeEvents(t *testing.T) {
	p := &Plan{Rules: []Rule{
		{Kind: Crash, At: 2 * time.Second, For: time.Second, Nodes: List(3, 1)},
		{Kind: Crash, At: time.Second, For: 5 * time.Second, Nodes: Range(7, 7)},
	}}
	evs := p.NodeEvents(10)
	want := []NodeEvent{
		{time.Second, 7, false},
		{2 * time.Second, 1, false},
		{2 * time.Second, 3, false},
		{3 * time.Second, 1, true},
		{3 * time.Second, 3, true},
		{6 * time.Second, 7, true},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
	if (*Plan)(nil).NodeEvents(10) != nil {
		t.Error("nil plan must have no node events")
	}
}

func TestParseRoundTrip(t *testing.T) {
	spec := "seed=7;window=250ms;burst:at=5s,for=3s,prob=0.5,src=*,dst=*;partition:at=10s,for=5s,a=0-4,b=5-9;crash:at=16s,for=4s,nodes=7;spike:at=1s,for=2s,extra=80,src=1.3.5,dst=0-9;loss:prob=0.05;loss:at=2s,for=1s,prob=0.5,dst=3"
	p, err := Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Window != 250*time.Millisecond || len(p.Rules) != 6 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Rules[1].Kind != Partition || !p.Rules[1].Src.Contains(4) || p.Rules[1].Src.Contains(5) {
		t.Errorf("partition rule parsed wrong: %+v", p.Rules[1])
	}
	if p.Rules[3].Kind != DelaySpike || p.Rules[3].ExtraMs != 80 || !p.Rules[3].Src.Contains(3) || p.Rules[3].Src.Contains(2) {
		t.Errorf("spike rule parsed wrong: %+v", p.Rules[3])
	}
	if r := p.Rules[4]; r.Kind != Loss || r.At != 0 || r.For != forever || r.Prob != 0.05 || !r.Src.All || !r.Dst.All {
		t.Errorf("whole-run loss rule parsed wrong: %+v", r)
	}
	if r := p.Rules[5]; r.Kind != Loss || r.At != 2*time.Second || r.For != time.Second || !r.Dst.Contains(3) || r.Dst.Contains(4) {
		t.Errorf("scoped loss rule parsed wrong: %+v", r)
	}
	if !strings.Contains(p.String(), ";loss:prob=0.05;") {
		t.Errorf("whole-run loss rule not rendered as loss:prob=0.05: %s", p.String())
	}
	rt, err := Parse(p.String())
	if err != nil {
		t.Fatalf("round-trip parse of %q: %v", p.String(), err)
	}
	if rt.String() != p.String() {
		t.Errorf("round trip changed the plan:\n  %s\n  %s", p.String(), rt.String())
	}
	// Round-tripped plans decide identically.
	for w := 0; w < 100; w++ {
		now := time.Duration(w) * 100 * time.Millisecond
		if p.DecideSend(1, 3, now, uint32(w)) != rt.DecideSend(1, 3, now, uint32(w)) {
			t.Fatalf("round-tripped plan disagrees at %v", now)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus",
		"seed=x",
		"tornado:at=1s,for=1s",
		"burst:at=1s,for=1s,prob=1.5",
		"burst:at=1s",                  // missing for
		"crash:at=1s,for=1s",           // empty node set
		"partition:at=1s,for=1s,a=0-4", // empty side b
		"spike:at=1s,for=1s,extra=-3",
		"burst:at=1s,for=1s,src=9-2",
		"loss:prob=1.5",
		"loss:prob=NaN",
		"loss:at=1s,for=0s,prob=0.1",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad plan", spec)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := &Plan{Rules: []Rule{{Kind: LossBurst, At: 0, For: time.Second, Prob: 0.2, Src: Everyone(), Dst: Everyone()}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	if err := (*Plan)(nil).Validate(); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	badKind := &Plan{Rules: []Rule{{Kind: Kind(99), At: 0, For: time.Second}}}
	if err := badKind.Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
}
