package eval

import (
	"context"
	"sync"
)

// Flight deduplicates concurrent work on one key: the first caller (the
// leader) computes, and callers arriving while it runs (followers) wait
// for the value it publishes. A failed leader publishes its error, and
// each follower then computes on its own, so one caller's failure (its
// deadline, its context) never becomes the others'. The key retires when
// the leader finishes: a later caller leads a new flight. The zero value
// is ready to use.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*Call[V]
}

// Call is one in-flight computation.
type Call[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
}

// Join returns the in-flight call for key, creating one if absent; leader
// reports whether the caller must compute and then Finish.
func (f *Flight[K, V]) Join(key K) (c *Call[V], leader bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.m[key]; ok {
		return c, false
	}
	if f.m == nil {
		f.m = make(map[K]*Call[V])
	}
	c = &Call[V]{done: make(chan struct{})}
	f.m[key] = c
	return c, true
}

// Finish publishes the leader's result and retires key.
func (f *Flight[K, V]) Finish(key K, c *Call[V], val V, err error) {
	c.val, c.err = val, err
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
	close(c.done)
}

// Wait blocks until the leader finishes or ctx ends. ok is false when the
// leader failed, telling the follower to compute on its own; err is ctx's
// error when the wait was abandoned.
func (c *Call[V]) Wait(ctx context.Context) (val V, ok bool, err error) {
	select {
	case <-c.done:
		return c.val, c.err == nil, nil
	case <-ctx.Done():
		return val, false, ctx.Err()
	}
}
