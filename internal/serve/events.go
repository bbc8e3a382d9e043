package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/trace"
)

// Event is one entry in a job's live event stream. IDs are assigned
// monotonically from 1 within the job, which is what makes
// Last-Event-ID resume exact: a client that reconnects with the last ID
// it saw receives every later event exactly once.
type Event struct {
	ID   int    `json:"id"`
	Type string `json:"type"`
	Data any    `json:"data"`
}

// eventLog is a job's append-only event history plus a broadcast for
// live followers. The full history is retained for the job's lifetime
// (bounded: a study emits phase/device-level events, not per-handshake
// ones), so any resume offset can be served from memory.
type eventLog struct {
	mu     sync.Mutex
	events []Event
	wake   chan struct{}
	closed bool
}

func newEventLog() *eventLog {
	return &eventLog{wake: make(chan struct{})}
}

// Append records one event and wakes every waiting follower.
func (l *eventLog) Append(typ string, data any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.events = append(l.events, Event{ID: len(l.events) + 1, Type: typ, Data: data})
	close(l.wake)
	l.wake = make(chan struct{})
}

// Close marks the stream complete (the job reached a terminal state);
// followers drain what remains and stop.
func (l *eventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	close(l.wake)
	l.wake = make(chan struct{})
}

// Wait returns every event with ID > after, blocking until at least one
// exists, the log closes, or done fires. The second result is false
// once the log is closed and fully delivered (or the wait was
// abandoned): the follower should stop.
func (l *eventLog) Wait(after int, done <-chan struct{}) ([]Event, bool) {
	for {
		l.mu.Lock()
		if after < len(l.events) {
			// Deliver everything outstanding; more may follow unless the
			// log is already closed.
			out := append([]Event(nil), l.events[after:]...)
			closed := l.closed
			l.mu.Unlock()
			return out, !closed
		}
		if l.closed {
			l.mu.Unlock()
			return nil, false
		}
		wake := l.wake
		l.mu.Unlock()
		select {
		case <-wake:
		case <-done:
			return nil, false
		}
	}
}

// Events returns the job's event log (never nil).
func (j *Job) Events() *eventLog { return j.events }

// phaseEvent, degradeEvent and spanEvent are the SSE payload shapes.
type phaseEvent struct {
	Phase string `json:"phase"`
}

type degradeEvent struct {
	Phase  string `json:"phase"`
	Reason string `json:"reason"`
}

type spanEvent struct {
	Name     string `json:"name"`
	Detail   string `json:"detail,omitempty"`
	Status   string `json:"status"`
	Duration string `json:"duration"`
}

type stateEvent struct {
	State    string `json:"state"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// wireStudyEvents connects a study's live hooks to the job's event log:
// phase transitions, degradations as they are contained, and completed
// span summaries for the coarse span kinds (phase, month, device —
// never per-connection spans, which would flood the stream).
func (j *Job) wireStudyEvents(s *core.Study) {
	prevDone := s.PhaseDone
	s.PhaseStart = func(name string) {
		j.events.Append("phase_start", phaseEvent{Phase: name})
	}
	s.PhaseDone = func(name string) {
		j.events.Append("phase_done", phaseEvent{Phase: name})
		if prevDone != nil {
			prevDone(name)
		}
	}
	s.OnDegraded = func(d core.Degradation) {
		j.events.Append("degradation", degradeEvent{Phase: d.Phase, Reason: d.Reason})
	}
	if t := s.Tracer(); t != nil {
		t.OnComplete(func(r trace.SpanRecord) {
			switch r.Name {
			case "phase", "month", "device":
				j.events.Append("span", spanEvent{
					Name:     r.Name,
					Detail:   r.Detail,
					Status:   r.Status,
					Duration: r.Duration().String(),
				})
			}
		})
	}
}

// jobEvents handles GET /jobs/{id}/events: a Server-Sent Events stream
// of the job's live progress. The Last-Event-ID header (or an ?after=N
// query parameter) resumes after the given event ID; every event is
// delivered exactly once per connection. The stream ends once the job
// reaches a terminal state and all events are delivered; the existing
// poll endpoints are unaffected.
func (s *Server) jobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			after = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.m.proc.Counter("serve.events.streams").Inc()

	log := j.Events()
	for {
		events, more := log.Wait(after, r.Context().Done())
		for _, ev := range events {
			data, err := json.Marshal(ev.Data)
			if err != nil {
				data = []byte(`{}`)
			}
			// Re-arm the write deadline per event: a coordinator that
			// stalled mid-stream gets its connection cut instead of
			// pinning this goroutine for the job's lifetime.
			extendWriteDeadline(w)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data)
			after = ev.ID
			s.m.proc.Counter("serve.events.sent").Inc()
		}
		flusher.Flush()
		if !more {
			return
		}
	}
}
