package pipeline

import "testing"

// TestCallRefcount pins the shared-call lifecycle: only the last
// participant to leave cancels the work, and a call everyone has left
// refuses new participants, who must start a fresh call instead of
// inheriting a cancelled one.
func TestCallRefcount(t *testing.T) {
	cancels := 0
	c := newCall[int](func() { cancels++ })
	if !c.join() {
		t.Fatal("join refused on a live call")
	}
	c.leave()
	if cancels != 0 {
		t.Fatalf("cancelled with a participant left")
	}
	c.leave()
	if cancels != 1 {
		t.Fatalf("last leave cancelled %d times, want 1", cancels)
	}
	if c.join() {
		t.Fatal("join accepted a call every participant had left")
	}
	c.finish(7, nil)
	<-c.done
	if c.res != 7 {
		t.Fatalf("result = %d, want 7", c.res)
	}
}
