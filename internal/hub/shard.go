package hub

import (
	"runtime"
	"sync"
	"time"

	"gameauthority/internal/wire"
)

// shardInbox is each shard loop's command queue depth. A full inbox makes
// Submit block — backpressure onto the enqueuing connection rather than
// unbounded memory.
const shardInbox = 1024

// Shards is a pool of session loops: N goroutines, each running the
// commands of the sessions whose ids hash onto it, in submission order,
// so the network side only enqueues commands and dequeues results.
type Shards struct {
	inboxes []chan *job
	done    chan struct{}

	mu      sync.RWMutex // guards closed against Submit
	closed  bool
	pending sync.WaitGroup // Submits past the closed check, pre-enqueue
	loops   sync.WaitGroup
	once    sync.Once
}

// job is one queued command: a /ws play names its connection, binding,
// decoded request and start time, so queuing it builds no closure; any
// other command is a closure in fn.
type job struct {
	fn   func()
	conn *wsConn
	e    *refEntry
	play wire.Play
	t0   time.Time
}

// jobs recycles job structs, so a play allocates none while an inbox
// slot stays one pointer: an inbox of job values would hold a job's size
// per slot on every loop, used or not.
var jobs = sync.Pool{New: func() any { return new(job) }}

// run executes j and returns it to jobs.
func (j *job) run() {
	if j.fn != nil {
		j.fn()
	} else {
		j.conn.play(j.e, j.play, j.t0)
	}
	*j = job{}
	jobs.Put(j)
}

// NewShards starts n shard loops; n < 1 means GOMAXPROCS.
func NewShards(n int) *Shards {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &Shards{
		inboxes: make([]chan *job, n),
		done:    make(chan struct{}),
	}
	for i := range s.inboxes {
		s.inboxes[i] = make(chan *job, shardInbox)
		s.loops.Add(1)
		go s.run(s.inboxes[i])
	}
	return s
}

// N reports the number of shard loops.
func (s *Shards) N() int { return len(s.inboxes) }

// QueueDepth reports the commands currently queued across all shard
// inboxes — the sampled backlog behind the authoritative loops.
func (s *Shards) QueueDepth() int {
	n := 0
	for _, inbox := range s.inboxes {
		n += len(inbox)
	}
	return n
}

// Index reports which shard owns the key.
func (s *Shards) Index(key string) int {
	// FNV-1a, matching the registry's shard pinning.
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(s.inboxes)))
}

// Submit enqueues job on the shard owning key. It blocks while the
// shard's inbox is full (bounded-queue backpressure) and returns false —
// without running the job — once the pool is closed. A true return
// guarantees the job will execute.
func (s *Shards) Submit(key string, fn func()) bool {
	j := jobs.Get().(*job)
	j.fn = fn
	return s.submit(s.Index(key), j)
}

// submit enqueues j, taken from jobs, on shard i, with Submit's blocking
// and refusal; a refused job goes back to jobs.
func (s *Shards) submit(i int, j *job) bool {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		*j = job{}
		jobs.Put(j)
		return false
	}
	s.pending.Add(1)
	s.mu.RUnlock()
	s.inboxes[i] <- j
	s.pending.Done()
	return true
}

func (s *Shards) run(inbox chan *job) {
	defer s.loops.Done()
	for {
		select {
		case j := <-inbox:
			j.run()
		case <-s.done:
			// No Submit can enqueue anymore (Close waits for in-flight
			// sends before closing done): drain what is queued and exit,
			// so every accepted job runs.
			for {
				select {
				case j := <-inbox:
					j.run()
				default:
					return
				}
			}
		}
	}
}

// Close stops accepting jobs, runs everything already accepted, and
// waits for the loops to exit. Safe to call more than once.
func (s *Shards) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.pending.Wait()
		close(s.done)
		s.loops.Wait()
	})
}
