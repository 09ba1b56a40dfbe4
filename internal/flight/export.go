package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"time"

	"gocured/internal/trace"
)

// TraceEvent is one Chrome trace-event (the JSON object Perfetto and
// chrome://tracing load). Ph is the phase: "B"/"E" duration begin/end,
// "i" instant, "M" metadata.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceFile is the JSON-object container format ({"traceEvents": [...]});
// both Perfetto and chrome://tracing accept it.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace renders rings as Chrome trace-event JSON: one track (tid) per
// ring, a thread_name metadata record naming it, B/E duration pairs for
// frames and phases (nesting renders the interpreter call stack / a
// request's span tree), and instants for checks, traps, allocations and
// pointer conversions.
//
// The output is guaranteed well-formed even over a wrapped ring: timestamps
// are clamped non-decreasing per track, E events whose B was overwritten
// are dropped, and B events still open at the end of a ring get synthetic
// closing E events — so B/E pairs always balance.
func WriteTrace(w io.Writer, rings []*Ring) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	for tid, r := range rings {
		f.TraceEvents = append(f.TraceEvents, ringEvents(r, tid+1)...)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// ringEvents converts one ring into trace events on track tid.
func ringEvents(r *Ring, tid int) []TraceEvent {
	out := []TraceEvent{{
		Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
		Args: map[string]any{"name": r.Track()},
	}}
	depth := 0
	lastTS := float64(0)
	var openNames []string
	emit := func(te TraceEvent) {
		if te.TS < lastTS {
			te.TS = lastTS // clamp: monotonic per track
		}
		lastTS = te.TS
		out = append(out, te)
	}
	for _, e := range r.Events() {
		ts := float64(e.TS)
		switch e.Kind {
		case EvCall, EvBegin:
			emit(TraceEvent{Name: e.Name, Ph: "B", TS: ts, Pid: 1, Tid: tid, Cat: e.Kind.String()})
			depth++
			openNames = append(openNames, e.Name)
		case EvRet, EvEnd:
			if depth == 0 {
				continue // matching B was overwritten by wraparound
			}
			depth--
			openNames = openNames[:depth]
			emit(TraceEvent{Name: e.Name, Ph: "E", TS: ts, Pid: 1, Tid: tid, Cat: e.Kind.String()})
		case EvCheck:
			te := TraceEvent{Name: "check", Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "check", S: "t"}
			if s := r.site(e.Site); s != nil {
				te.Name = "check " + s.Kind
				te.Args = map[string]any{"pos": s.Pos}
			}
			emit(te)
		case EvTrap:
			te := TraceEvent{Name: "TRAP " + e.Name, Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "trap", S: "t"}
			if e.Pos != "" {
				te.Args = map[string]any{"pos": e.Pos}
			}
			emit(te)
		case EvAlloc:
			emit(TraceEvent{Name: e.Name, Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "alloc", S: "t",
				Args: map[string]any{"bytes": e.Arg}})
		case EvFree:
			emit(TraceEvent{Name: "free", Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "alloc", S: "t",
				Args: map[string]any{"addr": e.Arg}})
		case EvPack, EvUnpack:
			emit(TraceEvent{Name: e.Kind.String() + " " + e.Name, Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "fatptr", S: "t"})
		case EvWrapper:
			emit(TraceEvent{Name: e.Name, Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "wrapper", S: "t"})
		case EvSample:
			emit(TraceEvent{Name: "sample", Ph: "i", TS: ts, Pid: 1, Tid: tid, Cat: "sample", S: "t",
				Args: map[string]any{"pos": e.Pos}})
		}
	}
	// Close frames left open (a trap unwinds via panic, so EvRet events
	// normally balance; an exhausted step limit or a wrapped ring can
	// still leave B's dangling).
	for i := depth - 1; i >= 0; i-- {
		emit(TraceEvent{Name: openNames[i], Ph: "E", TS: lastTS, Pid: 1, Tid: tid, Cat: "call"})
	}
	return out
}

// RingFromSpans converts a pre-order, depth-annotated span list
// (internal/trace) into a ring of EvBegin/EvEnd pairs, so the spans appear
// as their own track in the exported trace. The span tree is rebuilt and
// sanitized exactly as WriteSpanTrace does, so any input list yields
// balanced, monotonic pairs. TS is microseconds (StartMS * 1000). Returns
// nil when there are no spans.
func RingFromSpans(track string, spans []trace.Span) *Ring {
	if len(spans) == 0 {
		return nil
	}
	r := NewRing(2*len(spans), track)
	var emit func(n *spanNode)
	emit = func(n *spanNode) {
		r.Record(Event{TS: uint64(n.start * 1000), Kind: EvBegin, Name: n.name})
		for _, c := range n.children {
			emit(c)
		}
		r.Record(Event{TS: uint64(n.end * 1000), Kind: EvEnd, Name: n.name})
	}
	for _, root := range sanitizedSpanTree(spans) {
		emit(root)
	}
	return r
}

// alignRequests returns copies of traces ordered by start time, each one's
// spans shifted from request-relative offsets onto one clock whose zero is
// the earliest request's start.
func alignRequests(traces []trace.ReqTrace) []trace.ReqTrace {
	traces = slices.Clone(traces)
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Start.Before(traces[j].Start) })
	for k := range traces {
		rt := &traces[k]
		off := float64(rt.Start.Sub(traces[0].Start)) / float64(time.Millisecond)
		rt.Spans = slices.Clone(rt.Spans)
		for i := range rt.Spans {
			rt.Spans[i].StartMS += off
		}
	}
	return traces
}

// WriteRequestTrace renders finished request traces (a pipeline Runner's
// trace buffer, or the requests of one trace ID in it) as Chrome
// trace-event JSON, one track per request, ordered by start time. Each
// trace's spans are shifted onto one clock whose zero is the earliest
// request's start, so the tracks line up in Perfetto and show the
// queue-wait, cache-tier and compile-phase spans of every request side by
// side. Each request's root span carries its trace ID, name, start time
// and error in its args.
func WriteRequestTrace(w io.Writer, traces []trace.ReqTrace) error {
	var tracks []spanTrack
	for _, rt := range alignRequests(traces) {
		args := map[string]any{"trace_id": rt.ID, "name": rt.Name, "start": rt.Start.Format(time.RFC3339Nano)}
		if rt.Err != "" {
			args["err"] = rt.Err
		}
		tracks = append(tracks, spanTrack{name: "req " + rt.Name, spans: rt.Spans, args: args})
	}
	return writeSpanTracks(w, tracks)
}

// spanNode is one node of the reconstructed span tree WriteSpanTrace
// sanitizes before emission. Times are milliseconds.
type spanNode struct {
	name       string
	start, end float64
	children   []*spanNode
}

// buildSpanTree reconstructs the tree from a pre-order, depth-annotated
// span list: each span becomes a child of the nearest preceding span with a
// smaller depth (spans with no such ancestor are roots).
func buildSpanTree(spans []trace.Span) []*spanNode {
	var roots []*spanNode
	type entry struct {
		n     *spanNode
		depth int
	}
	var stack []entry
	for _, sp := range spans {
		dur := sp.DurMS
		if dur < 0 {
			dur = 0 // span never ended: render as zero-duration
		}
		n := &spanNode{name: sp.Name, start: sp.StartMS, end: sp.StartMS + dur}
		for len(stack) > 0 && stack[len(stack)-1].depth >= sp.Depth {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			roots = append(roots, n)
		} else {
			p := stack[len(stack)-1].n
			p.children = append(p.children, n)
		}
		stack = append(stack, entry{n, sp.Depth})
	}
	return roots
}

// sanitizeSpan clamps n into [*cursor, maxEnd] and its children into n,
// ordering siblings by start and squeezing out overlaps, so a depth-first
// B/E emission always satisfies ValidateTrace. Aggregate spans (store
// I/O) and float rounding can produce windows that slightly overrun their
// parent or neighbors; the clamp trades sub-bucket duration accuracy on
// those edges for a structurally valid trace.
func sanitizeSpan(n *spanNode, cursor *float64, maxEnd float64) {
	if n.start < *cursor {
		n.start = *cursor
	}
	if n.start > maxEnd {
		n.start = maxEnd
	}
	if n.end > maxEnd {
		n.end = maxEnd
	}
	if n.end < n.start {
		n.end = n.start
	}
	sort.SliceStable(n.children, func(i, j int) bool { return n.children[i].start < n.children[j].start })
	childCursor := n.start
	for _, c := range n.children {
		sanitizeSpan(c, &childCursor, n.end)
	}
	*cursor = n.end
}

// sanitizedSpanTree rebuilds the span tree of a pre-order, depth-annotated
// span list and sanitizes every root in order: the one span-to-tree
// conversion both WriteSpanTrace and RingFromSpans emit from.
func sanitizedSpanTree(spans []trace.Span) []*spanNode {
	roots := buildSpanTree(spans)
	if len(roots) == 0 {
		return nil
	}
	cursor := roots[0].start
	for _, root := range roots {
		sanitizeSpan(root, &cursor, math.Inf(1))
	}
	return roots
}

// appendSpanEvents emits one sanitized node as a B/E pair around its
// children, on pid 1 and the given tid. TS is microseconds (span times are
// ms).
func appendSpanEvents(out []TraceEvent, n *spanNode, tid int, args map[string]any) []TraceEvent {
	out = append(out, TraceEvent{Name: n.name, Ph: "B", TS: n.start * 1000, Pid: 1, Tid: tid, Cat: "span", Args: args})
	for _, c := range n.children {
		out = appendSpanEvents(out, c, tid, nil)
	}
	return append(out, TraceEvent{Name: n.name, Ph: "E", TS: n.end * 1000, Pid: 1, Tid: tid, Cat: "span"})
}

// spanTrack is one track of writeSpanTracks: its name, a pre-order,
// depth-annotated span timeline, and the args (may be nil) attached to the
// first root span's B event.
type spanTrack struct {
	name  string
	spans []trace.Span
	args  map[string]any
}

// WriteSpanTrace renders a pre-order, depth-annotated span timeline (a
// request trace from the pipeline's trace buffer) as Chrome trace-event
// JSON on a single track. rootArgs, when non-nil, is attached to the first
// root span's B event (the place to carry the trace ID). The span tree is
// reconstructed and sanitized (children clamped into parents, siblings
// ordered and non-overlapping), so the output passes ValidateTrace for any
// input list.
func WriteSpanTrace(w io.Writer, track string, spans []trace.Span, rootArgs map[string]any) error {
	return writeSpanTracks(w, []spanTrack{{name: track, spans: spans, args: rootArgs}})
}

// writeSpanTracks is WriteSpanTrace for several timelines: track i is
// thread i+1 of one process. A track without spans is left out.
func writeSpanTracks(w io.Writer, tracks []spanTrack) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: []TraceEvent{}}
	for i, tr := range tracks {
		if len(tr.spans) == 0 {
			continue
		}
		tid := i + 1
		f.TraceEvents = append(f.TraceEvents, TraceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": tr.name},
		})
		for j, rt := range sanitizedSpanTree(tr.spans) {
			var args map[string]any
			if j == 0 {
				args = tr.args
			}
			f.TraceEvents = appendSpanEvents(f.TraceEvents, rt, tid, args)
		}
	}
	return json.NewEncoder(w).Encode(f)
}

// ValidateTrace checks data against the trace-event contract the exporter
// promises: a {"traceEvents": [...]} object whose events each carry a
// name, a known phase, and pid/tid; per-track timestamps are monotonically
// non-decreasing; and every track's B/E pairs balance (every E matches the
// innermost open B by name, and nothing stays open at the end). It returns
// the number of events on success.
func ValidateTrace(data []byte) (int, error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return 0, fmt.Errorf("trace is not valid JSON: %w", err)
	}
	if f.TraceEvents == nil {
		return 0, fmt.Errorf("trace has no traceEvents array")
	}
	type track struct{ pid, tid int }
	lastTS := make(map[track]float64)
	stacks := make(map[track][]string)
	for i, te := range f.TraceEvents {
		if te.Name == "" {
			return 0, fmt.Errorf("event %d: empty name", i)
		}
		switch te.Ph {
		case "B", "E", "i", "M", "X":
		default:
			return 0, fmt.Errorf("event %d (%q): unknown phase %q", i, te.Name, te.Ph)
		}
		if te.Ph == "M" {
			continue
		}
		tr := track{te.Pid, te.Tid}
		if prev, ok := lastTS[tr]; ok && te.TS < prev {
			return 0, fmt.Errorf("event %d (%q): timestamp %v goes backwards (prev %v) on pid=%d tid=%d",
				i, te.Name, te.TS, prev, te.Pid, te.Tid)
		}
		lastTS[tr] = te.TS
		switch te.Ph {
		case "B":
			stacks[tr] = append(stacks[tr], te.Name)
		case "E":
			st := stacks[tr]
			if len(st) == 0 {
				return 0, fmt.Errorf("event %d (%q): E with no open B on pid=%d tid=%d", i, te.Name, te.Pid, te.Tid)
			}
			if top := st[len(st)-1]; top != te.Name {
				return 0, fmt.Errorf("event %d: E %q does not match open B %q on pid=%d tid=%d",
					i, te.Name, top, te.Pid, te.Tid)
			}
			stacks[tr] = st[:len(st)-1]
		}
	}
	for tr, st := range stacks {
		if len(st) > 0 {
			return 0, fmt.Errorf("pid=%d tid=%d: %d B events never closed (innermost %q)",
				tr.pid, tr.tid, len(st), st[len(st)-1])
		}
	}
	return len(f.TraceEvents), nil
}
