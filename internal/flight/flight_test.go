package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"gocured/internal/trace"
)

func TestRingWraparound(t *testing.T) {
	r := NewRing(8, "t")
	for i := 0; i < 20; i++ {
		r.Record(Event{TS: uint64(i), Kind: EvWrapper, Name: fmt.Sprintf("e%d", i)})
	}
	if got := r.Len(); got != 8 {
		t.Fatalf("Len = %d, want 8", got)
	}
	if got := r.Dropped(); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	evs := r.Events()
	if len(evs) != 8 {
		t.Fatalf("len(Events) = %d, want 8", len(evs))
	}
	for i, e := range evs {
		want := uint64(12 + i)
		if e.TS != want {
			t.Errorf("event %d: TS = %d, want %d (oldest-first order)", i, e.TS, want)
		}
	}
}

func TestRingNoWrap(t *testing.T) {
	r := NewRing(8, "t")
	r.Record(Event{TS: 1, Kind: EvWrapper, Name: "a"})
	r.Record(Event{TS: 2, Kind: EvWrapper, Name: "b"})
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
	evs := r.Events()
	if len(evs) != 2 || evs[0].Name != "a" || evs[1].Name != "b" {
		t.Fatalf("Events = %+v", evs)
	}
}

// A wrapped ring can retain an EvRet whose EvCall was overwritten, and an
// EvCall whose EvRet never happened. The exporter must still emit balanced
// B/E pairs that pass validation.
func TestExportBalancedAfterWraparound(t *testing.T) {
	r := NewRing(4, "interp")
	r.Record(Event{TS: 1, Kind: EvCall, Name: "main"})
	r.Record(Event{TS: 2, Kind: EvCall, Name: "f"})
	r.Record(Event{TS: 3, Kind: EvRet, Name: "f"})
	r.Record(Event{TS: 4, Kind: EvRet, Name: "main"})
	// Wrap: push the two Call events out, keep orphan Rets in view.
	r.Record(Event{TS: 5, Kind: EvCall, Name: "g"})
	r.Record(Event{TS: 6, Kind: EvWrapper, Name: "x"})
	// g never returns (simulates a step-limit kill mid-call).
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*Ring{r}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("exported trace does not validate: %v\n%s", err, buf.String())
	}
	if n == 0 {
		t.Fatal("no events exported")
	}
	out := buf.String()
	if !strings.Contains(out, `"name":"g","ph":"B"`) {
		t.Errorf("missing B for g: %s", out)
	}
	if !strings.Contains(out, `"name":"g","ph":"E"`) {
		t.Errorf("missing synthetic E for g: %s", out)
	}
}

func TestValidateRejectsBadTraces(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", `{`, "not valid JSON"},
		{"no events", `{}`, "no traceEvents"},
		{"backwards ts", `{"traceEvents":[
			{"name":"a","ph":"i","ts":5,"pid":1,"tid":1,"s":"t"},
			{"name":"b","ph":"i","ts":4,"pid":1,"tid":1,"s":"t"}]}`, "goes backwards"},
		{"orphan E", `{"traceEvents":[{"name":"a","ph":"E","ts":1,"pid":1,"tid":1}]}`, "no open B"},
		{"unclosed B", `{"traceEvents":[{"name":"a","ph":"B","ts":1,"pid":1,"tid":1}]}`, "never closed"},
		{"mismatched E", `{"traceEvents":[
			{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
			{"name":"b","ph":"E","ts":2,"pid":1,"tid":1}]}`, "does not match"},
		{"bad phase", `{"traceEvents":[{"name":"a","ph":"Z","ts":1,"pid":1,"tid":1}]}`, "unknown phase"},
	}
	for _, tc := range cases {
		if _, err := ValidateTrace([]byte(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	ok := `{"traceEvents":[
		{"name":"a","ph":"B","ts":1,"pid":1,"tid":1},
		{"name":"a","ph":"E","ts":2,"pid":1,"tid":1},
		{"name":"a","ph":"B","ts":1,"pid":1,"tid":2}],"displayTimeUnit":"ms"}`
	// tid 2's unclosed B must be caught even though tid 1 balances.
	if _, err := ValidateTrace([]byte(ok)); err == nil {
		t.Error("per-track unclosed B not caught")
	}
}

func TestSnapshotEndsAtTrap(t *testing.T) {
	r := NewRing(128, "interp")
	r.SetSites([]Site{{Pos: "t.c:9:1", Kind: "seq"}})
	for i := 0; i < 40; i++ {
		r.Record(Event{TS: uint64(i), Kind: EvCheck, Site: 1})
	}
	r.Record(Event{TS: 40, Kind: EvTrap, Name: "bounds", Pos: "t.c:9:1"})
	// Unwinding noise after the trap must not enter the snapshot.
	r.Record(Event{TS: 41, Kind: EvRet, Name: "main"})
	bb := Snapshot(r, 36)
	if bb.TrapKind != "bounds" || bb.TrapPos != "t.c:9:1" {
		t.Fatalf("trap attribution = %q %q", bb.TrapKind, bb.TrapPos)
	}
	if len(bb.Events) != 36 {
		t.Fatalf("snapshot has %d events, want 36", len(bb.Events))
	}
	last := bb.Events[len(bb.Events)-1]
	if !strings.Contains(last, "trap bounds") {
		t.Fatalf("last snapshot line is %q, want the trap event", last)
	}
	for _, l := range bb.Events[:len(bb.Events)-1] {
		if !strings.Contains(l, "check seq at t.c:9:1") {
			t.Fatalf("preceding line %q not resolved through the site table", l)
		}
	}
}

func TestProfileTopDeterministicOnTies(t *testing.T) {
	p := NewProfile(64)
	// Same sample counts; numeric line order must win (lexical order would
	// put t.c:10 before t.c:9).
	p.Sample("t.c:10")
	p.Sample("t.c:9")
	p.Sample("t.c:100")
	top := p.Top(0)
	got := []string{top[0].Pos, top[1].Pos, top[2].Pos}
	want := []string{"t.c:9", "t.c:10", "t.c:100"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Top order = %v, want %v", got, want)
		}
	}
	if top[0].EstSteps != 64 {
		t.Errorf("EstSteps = %d, want 64 (samples x period)", top[0].EstSteps)
	}
}

// nastySpans is a deliberately malformed request timeline: overlapping
// siblings, a child overrunning its parent, an unfinished span and
// out-of-order siblings. Both span exporters must still emit a valid trace.
var nastySpans = []trace.Span{
	{Name: "request", StartMS: 0, DurMS: 10},
	{Name: "queue-wait", StartMS: 0, DurMS: 1, Depth: 1},
	{Name: "compile", StartMS: 1, DurMS: 8, Depth: 1},
	{Name: "cache-compile", StartMS: 1, DurMS: 0, Depth: 2},
	{Name: "parse", StartMS: 1, DurMS: 3, Depth: 2},
	{Name: "infer", StartMS: 3.5, DurMS: 6, Depth: 2},    // overlaps parse, overruns compile
	{Name: "store-read", StartMS: 2, DurMS: 1, Depth: 2}, // out of order
	{Name: "run", StartMS: 9, DurMS: -1, Depth: 1},       // never finished
}

func TestRingFromSpansNesting(t *testing.T) {
	cases := map[string][]trace.Span{
		"well-nested": {
			{Name: "build", StartMS: 0, DurMS: 10, Depth: 0},
			{Name: "parse", StartMS: 0, DurMS: 4, Depth: 1},
			{Name: "sema", StartMS: 4, DurMS: 6, Depth: 1},
		},
		"overlapping": nastySpans,
		// A float-rounding overlap between adjacent phases: run starts an
		// ulp before compile ends.
		"ulp-overlap": {
			{Name: "request", StartMS: 0, DurMS: 2},
			{Name: "compile", StartMS: 0, DurMS: 1.0000000000000002, Depth: 1},
			{Name: "run", StartMS: 1, DurMS: 1, Depth: 1},
		},
	}
	for name, spans := range cases {
		r := RingFromSpans("compile", spans)
		if got, want := r.Len(), 2*len(spans); got != want {
			t.Errorf("%s: ring holds %d events, want %d (one B/E pair per span)", name, got, want)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []*Ring{r}); err != nil {
			t.Fatal(err)
		}
		if _, err := ValidateTrace(buf.Bytes()); err != nil {
			t.Errorf("%s: span trace does not validate: %v\n%s", name, err, buf.String())
		}
	}
}

// TestRequestRingsSharedClock checks WriteRequestTrace puts request
// traces on one clock: each request is its own track, ordered by start,
// with its spans offset by its start relative to the earliest request.
func TestRequestRingsSharedClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	spans := []trace.Span{{Name: "request", DurMS: 2}, {Name: "queue-wait", DurMS: 1, Depth: 1}}
	var buf bytes.Buffer
	if err := WriteRequestTrace(&buf, []trace.ReqTrace{
		{ID: "b", Name: "late.c", Start: t0.Add(5 * time.Millisecond), Spans: spans},
		{ID: "a", Name: "early.c", Start: t0, Spans: spans},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(buf.Bytes()); err != nil {
		t.Fatalf("request trace does not validate: %v\n%s", err, buf.String())
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	tracks := map[int]string{}
	begins := map[int]float64{}
	for _, e := range f.TraceEvents {
		switch {
		case e.Ph == "M":
			tracks[e.Tid] = e.Args["name"].(string)
		case e.Ph == "B" && e.Name == "request":
			begins[e.Tid] = e.TS
		}
	}
	if len(tracks) != 2 || tracks[1] != "req early.c" || tracks[2] != "req late.c" {
		t.Fatalf("tracks = %v, want req early.c then req late.c", tracks)
	}
	if begins[1] != 0 || begins[2] != 5000 {
		t.Errorf("requests begin at %vµs and %vµs, want 0 and 5000", begins[1], begins[2])
	}
}

// TestTraceFileValidates validates an externally generated trace file (CI
// points GOCURED_TRACE_FILE at ccbench -trace-dir output); it is skipped
// in normal test runs.
func TestTraceFileValidates(t *testing.T) {
	path := os.Getenv("GOCURED_TRACE_FILE")
	if path == "" {
		t.Skip("GOCURED_TRACE_FILE not set")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(data)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	t.Logf("%s: %d events, valid", path, n)
}

// TestWriteSpanTraceSanitizes feeds the span exporter the nastySpans
// timeline and checks the output still passes ValidateTrace with the trace
// ID on the root event.
func TestWriteSpanTraceSanitizes(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSpanTrace(&b, "req abc", nastySpans, map[string]any{"trace_id": "0123456789abcdef"}); err != nil {
		t.Fatal(err)
	}
	n, err := ValidateTrace(b.Bytes())
	if err != nil {
		t.Fatalf("ValidateTrace: %v\n%s", err, b.String())
	}
	// 1 metadata + 8 spans * B/E.
	if n != 17 {
		t.Errorf("event count = %d, want 17", n)
	}
	out := b.String()
	if !strings.Contains(out, `"trace_id":"0123456789abcdef"`) {
		t.Errorf("root args missing trace_id:\n%s", out)
	}
	for _, name := range []string{"request", "queue-wait", "compile", "parse", "infer", "store-read", "run"} {
		if !strings.Contains(out, `"name":"`+name+`"`) {
			t.Errorf("span %q missing from output", name)
		}
	}
}

// TestWriteSpanTraceEmpty checks the degenerate cases stay valid.
func TestWriteSpanTraceEmpty(t *testing.T) {
	var b bytes.Buffer
	if err := WriteSpanTrace(&b, "empty", nil, nil); err != nil {
		t.Fatal(err)
	}
	if n, err := ValidateTrace(b.Bytes()); err != nil || n != 0 {
		t.Fatalf("empty trace: n=%d err=%v", n, err)
	}
	// A lone deep span (no root) still renders as its own tree.
	b.Reset()
	if err := WriteSpanTrace(&b, "deep", []trace.Span{{Name: "orphan", Depth: 3, DurMS: 1}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(b.Bytes()); err != nil {
		t.Fatal(err)
	}
}
