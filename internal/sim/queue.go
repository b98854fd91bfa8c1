package sim

// Queue is a first-in first-out buffer that reuses its storage. Popping
// advances a head index instead of re-slicing the front away, and a push
// that would grow the backing array first moves the live items down to its
// start. A stream through a queue whose occupancy stays bounded therefore
// allocates nothing once the array has grown to that bound; a re-sliced
// queue instead loses its front capacity with every pop and reallocates
// over and over. The zero value is an empty queue.
type Queue[T any] struct {
	items []T // items[head:] are live
	head  int
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// Items returns the queued items, oldest first, as a view that stays valid
// until the next Push, Drop or Clear.
func (q *Queue[T]) Items() []T { return q.items[q.head:] }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	q.makeRoom(1)
	q.items = append(q.items, v)
}

// PushAll appends vs at the back, in order.
func (q *Queue[T]) PushAll(vs []T) {
	q.makeRoom(len(vs))
	q.items = append(q.items, vs...)
}

// makeRoom compacts the live items to the front of the array when n more
// would not fit behind them.
func (q *Queue[T]) makeRoom(n int) {
	if q.head > 0 && len(q.items)+n > cap(q.items) {
		live := copy(q.items, q.items[q.head:])
		q.items = q.items[:live]
		q.head = 0
	}
}

// Front returns the oldest item; the queue must not be empty.
func (q *Queue[T]) Front() T { return q.items[q.head] }

// Pop removes and returns the oldest item; the queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.items[q.head]
	q.Drop(1)
	return v
}

// Drop removes the n oldest items; n must not exceed Len.
func (q *Queue[T]) Drop(n int) {
	q.head += n
	if q.head == len(q.items) {
		q.Clear()
	}
}

// Clear empties the queue, keeping its storage.
func (q *Queue[T]) Clear() {
	q.items = q.items[:0]
	q.head = 0
}
