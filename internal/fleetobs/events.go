// Package fleetobs is the fleet observability layer: per-rule SLOs
// evaluated as multi-window burn rates on the virtual clock, structured
// alert events appended to a deterministic JSONL log, and a per-rule
// health table. It consumes the engine's replication-lag watermarks and
// the dimensional telemetry families, and is the substrate the
// fleet-scale control plane (ROADMAP item 1) will steer by.
package fleetobs

import (
	"encoding/json"
	"io"
	"sync"
)

// Severity levels and evaluation states, ordered ok < warn < page.
const (
	StateOK   = "ok"
	StateWarn = "warn"
	StatePage = "page"
)

// Event is one structured observability event. AtSeconds is virtual time
// since the emitting monitor's epoch, so same-seed runs produce
// byte-identical logs.
type Event struct {
	AtSeconds float64 `json:"at_s"`
	Scope     string  `json:"scope,omitempty"` // e.g. bench scenario
	Rule      string  `json:"rule"`
	Dest      string  `json:"dest,omitempty"`
	Kind      string  `json:"kind"`     // lag-burn | dlq | divergence
	Severity  string  `json:"severity"` // info | warn | page
	State     string  `json:"state"`    // state entered by this transition
	BurnShort float64 `json:"burn_short,omitempty"`
	BurnLong  float64 `json:"burn_long,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	// Trace links the alert to a retained trace: the exemplar from the
	// highest occupied lag-histogram bucket at transition time, so a
	// paging burn alert resolves directly to a kept span tree.
	Trace string `json:"trace,omitempty"`
}

// EventLog is an append-only alert sink shared by one or more monitors.
// A nil *EventLog drops appends.
type EventLog struct {
	mu     sync.Mutex
	scope  string
	events []Event
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// SetScope stamps every subsequently appended event that has no scope of
// its own (bench runs tag events with their scenario this way).
func (l *EventLog) SetScope(scope string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.scope = scope
	l.mu.Unlock()
}

// Append records one event.
func (l *EventLog) Append(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if ev.Scope == "" {
		ev.Scope = l.scope
	}
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns a copy of the recorded events in append order.
func (l *EventLog) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Len returns the number of recorded events.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// WriteJSONL writes the log as one compact JSON object per line, in
// append order — deterministic for a deterministic run (struct field
// order fixes key order; virtual timestamps fix values).
func (l *EventLog) WriteJSONL(w io.Writer) error {
	for _, ev := range l.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
