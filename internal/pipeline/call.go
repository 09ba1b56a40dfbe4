package pipeline

import "sync"

// call is one in-flight unit of work that concurrent callers with the same
// key share: the first caller (the leader) starts it, later callers join
// it, and every participant receives the same result. The owner keeps its
// calls in a map guarded by its own mutex, so "look in the finished
// results, then in the calls in flight" is one critical section and a
// thundering herd of identical requests costs one execution.
//
// No caller owns the work: cancel (nil when the work cannot be cancelled)
// runs only when the last participant leaves, so one caller giving up
// never kills work the others still wait for.
type call[T any] struct {
	done chan struct{} // closed by finish
	res  T
	err  error

	cancel func()
	mu     sync.Mutex
	refs   int
}

func newCall[T any](cancel func()) *call[T] {
	return &call[T]{done: make(chan struct{}), cancel: cancel, refs: 1}
}

// join adds a participant, under the owner's lock that found c. It fails
// on a call every participant has already left: that call is cancelled,
// and the caller must start a fresh one in its place.
func (c *call[T]) join() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.refs == 0 {
		return false
	}
	c.refs++
	return true
}

// leave drops a participant that stopped waiting; the last one out
// cancels the work, synchronously.
func (c *call[T]) leave() {
	c.mu.Lock()
	c.refs--
	last := c.refs == 0
	c.mu.Unlock()
	if last && c.cancel != nil {
		c.cancel()
	}
}

// finish publishes the result to every participant.
func (c *call[T]) finish(res T, err error) {
	c.res, c.err = res, err
	close(c.done)
}
