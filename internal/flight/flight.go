// Package flight is gocured's flight recorder: a low-overhead, fixed-size
// ring-buffer event log of what a cured program actually did over time.
// The interpreter records Events into one Ring per Machine with no locks
// on the record path. Exporters (export.go) render rings as Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing) and as a
// step-sampling profile (profile.go); on a trap, Snapshot cuts a "black
// box": the last events leading up to and including the trap.
//
// The pipeline keeps no live rings of its own: a job's timing is its
// request span list (internal/trace), which WriteSpanTrace and
// WriteRequestTrace render only at export time.
//
// The disabled-path contract is one branch: every instrumentation point in
// the interpreter is `if m.rec != nil { record }`. A Ring is single-
// producer (the goroutine that owns it); reading a ring while its producer
// is live is racy and unsupported — export after the run.
package flight

import "fmt"

// EvKind classifies one recorded event.
type EvKind uint8

// Event kinds.
const (
	// EvCheck: one run-time check executed (Site identifies it).
	EvCheck EvKind = iota
	// EvTrap: a memory-safety trap fired (Name = trap kind, Pos = site).
	EvTrap
	// EvAlloc: heap allocation (Name = allocator, Arg = size in bytes).
	EvAlloc
	// EvFree: heap free (Arg = address).
	EvFree
	// EvPack: fat-pointer metadata fabricated at a widening conversion
	// (SAFE->SEQ bounds, ->WILD base adoption); Name says which.
	EvPack
	// EvUnpack: fat-pointer metadata checked+stripped at a narrowing
	// conversion (SEQ/WILD -> SAFE/RTTI).
	EvUnpack
	// EvCall / EvRet: interpreter frame push/pop (Name = function). These
	// become B/E duration pairs in the Chrome trace, so the track renders
	// the cured call stack over time.
	EvCall
	EvRet
	// EvWrapper: call into a library builtin / CCured wrapper (Name = fn).
	EvWrapper
	// EvBegin / EvEnd: generic phase boundary (compile phases, request
	// spans). Rendered as B/E pairs like frames.
	EvBegin
	EvEnd
	// EvSample: step-sampling profile hit (Pos = source line). Present in
	// the trace as instants; the aggregate lives in Profile.
	EvSample
)

var evNames = [...]string{"check", "trap", "alloc", "free", "pack", "unpack",
	"call", "ret", "wrapper", "begin", "end", "sample"}

func (k EvKind) String() string {
	if int(k) < len(evNames) {
		return evNames[k]
	}
	return fmt.Sprintf("ev(%d)", int(k))
}

// Event is one recorded occurrence. TS is a monotonic per-ring timestamp:
// interpreter rings use simulated cycles (deterministic), rings built from
// span lists use microseconds. Site indexes the ring's site table
// (1-based; 0 = no site).
type Event struct {
	TS   uint64
	Kind EvKind
	Site int32
	Name string
	Pos  string
	Arg  uint64
}

// Site describes one static check site referenced by Event.Site.
type Site struct {
	Pos  string
	Kind string
}

// DefaultRingCap is the default ring capacity in events. At 24 bytes of
// header plus two string headers per event this is well under 1 MiB per
// ring, and deep enough that a trap snapshot always has its preceding
// context (see DESIGN.md).
const DefaultRingCap = 8192

// Ring is one fixed-size single-producer event buffer.
type Ring struct {
	track string
	buf   []Event
	n     uint64 // total events ever recorded
	sites []Site
}

// NewRing builds a standalone ring (capacity <= 0 selects DefaultRingCap).
func NewRing(capacity int, track string) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCap
	}
	return &Ring{track: track, buf: make([]Event, capacity)}
}

// Record appends one event, overwriting the oldest once full. It never
// allocates and takes no locks; only the owning goroutine may call it.
func (r *Ring) Record(e Event) {
	r.buf[r.n%uint64(len(r.buf))] = e
	r.n++
}

// Track returns the ring's display name.
func (r *Ring) Track() string { return r.track }

// Len returns the number of live (retained) events.
func (r *Ring) Len() int {
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped returns how many events wraparound overwrote.
func (r *Ring) Dropped() uint64 {
	if r.n < uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.Len())
	start := uint64(0)
	if r.n > uint64(len(r.buf)) {
		start = r.n - uint64(len(r.buf))
	}
	for i := start; i < r.n; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// SetSites attaches the static check-site table events reference by ID.
func (r *Ring) SetSites(sites []Site) { r.sites = sites }

// Sites returns the attached site table.
func (r *Ring) Sites() []Site { return r.sites }

// site resolves a 1-based site ID, or nil.
func (r *Ring) site(id int32) *Site {
	if id <= 0 || int(id) > len(r.sites) {
		return nil
	}
	return &r.sites[id-1]
}

// FormatEvent renders one event as a single human-readable line (the black
// box format): "ts=1042 check seq at ftpd.c:120:7".
func (r *Ring) FormatEvent(e Event) string {
	var detail string
	switch e.Kind {
	case EvCheck:
		if s := r.site(e.Site); s != nil {
			detail = fmt.Sprintf("%s at %s", s.Kind, s.Pos)
		} else {
			detail = "?"
		}
	case EvTrap:
		detail = e.Name
		if e.Pos != "" {
			detail += " at " + e.Pos
		}
	case EvAlloc:
		detail = fmt.Sprintf("%s(%d)", e.Name, e.Arg)
	case EvFree:
		detail = fmt.Sprintf("0x%x", e.Arg)
	case EvPack, EvUnpack:
		detail = e.Name
	case EvCall, EvRet, EvWrapper, EvBegin, EvEnd:
		detail = e.Name
	case EvSample:
		detail = e.Pos
	}
	return fmt.Sprintf("ts=%d %s %s", e.TS, e.Kind, detail)
}

// BlackBox is the trap-time snapshot the recorder dumps: the last events
// leading up to and including the trap, plus the trap's attribution (the
// cured call stack and the inference blame chain, both carried over from
// the trap record).
type BlackBox struct {
	TrapKind string   `json:"trap_kind,omitempty"`
	TrapPos  string   `json:"trap_pos,omitempty"`
	Events   []string `json:"events"`
	Stack    []string `json:"stack,omitempty"`
	Blame    []string `json:"blame,omitempty"`
	// DroppedEvents counts events the ring had already overwritten before
	// the snapshot window.
	DroppedEvents uint64 `json:"dropped_events,omitempty"`
}

// Snapshot cuts a black box out of the ring: up to n events ending at the
// last recorded trap event (or at the newest event when nothing trapped),
// rendered oldest-first. Events recorded after the trap (frame pops during
// unwinding) are excluded so the window is "the instants before the trap".
func Snapshot(r *Ring, n int) *BlackBox {
	if r == nil {
		return nil
	}
	if n <= 0 {
		n = 128
	}
	evs := r.Events()
	end := len(evs) // exclusive
	bb := &BlackBox{DroppedEvents: r.Dropped()}
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == EvTrap {
			end = i + 1
			bb.TrapKind = evs[i].Name
			bb.TrapPos = evs[i].Pos
			break
		}
	}
	lo := end - n
	if lo < 0 {
		lo = 0
	}
	for _, e := range evs[lo:end] {
		bb.Events = append(bb.Events, r.FormatEvent(e))
	}
	return bb
}
