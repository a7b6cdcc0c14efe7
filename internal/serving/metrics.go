package serving

// QueueGauge aggregates the queue state of every watcher sharing one
// slow-consumer policy (the watcher class the gauges are keyed by).
type QueueGauge struct {
	Watchers int    `json:"watchers"`
	Depth    int    `json:"depth"`   // undelivered batches, summed
	MaxLag   uint64 `json:"max_lag"` // worst staged-minus-delivered backlog
	Dropped  uint64 `json:"dropped"` // batches discarded (DropOldest)
}

// Metrics is a Hub's observability snapshot: the sharing win (extractions
// and evaluations actually paid vs the one-extraction-per-watcher count the
// old pump model would have paid), the delivery-loss counters, and per-policy
// queue gauges.
type Metrics struct {
	Watchers int `json:"watchers"`
	// Classes counts the distinct (conjunction, columns) pairs watched.
	Classes int `json:"classes"`
	// Retained is the tuples held in the classes' exactly-once sets, summed
	// over classes: one copy of each class result delivered so far, however
	// many watchers share it.
	Retained int `json:"retained"`
	// Extractions counts change-driven shared delta extractions: with W
	// watchers on a relation, one change still costs exactly one.
	Extractions uint64 `json:"extractions"`
	// ResumeExtractions counts the per-watcher catch-up extractions paid
	// once per reconnect-with-token, outside the shared path.
	ResumeExtractions uint64 `json:"resume_extractions,omitempty"`
	// Evaluations counts Eval/EvalDelta calls: one per affected watcher
	// class per change, however many watchers share the class.
	Evaluations uint64 `json:"evaluations"`
	// NaiveExtractions is what the replaced one-pump-per-watcher model would
	// have paid: one extraction per primed watcher per change it watches.
	NaiveExtractions uint64 `json:"naive_extractions"`
	// SavedExtractions is the sharing win: naive minus evaluations.
	SavedExtractions uint64 `json:"saved_extractions"`
	// DroppedBatches counts deliveries discarded by DropOldest queues.
	DroppedBatches uint64 `json:"dropped_batches"`
	// CanceledWatchers counts watchers the Cancel policy closed.
	CanceledWatchers uint64                `json:"canceled_watchers"`
	Queues           map[string]QueueGauge `json:"queues,omitempty"`
}

// Metrics snapshots the hub.
func (h *Hub) Metrics() Metrics {
	m := Metrics{
		Extractions:       h.extractions.Load(),
		ResumeExtractions: h.resumeExtr.Load(),
		Evaluations:       h.evaluations.Load(),
		NaiveExtractions:  h.naive.Load(),
		DroppedBatches:    h.dropped.Load(),
		CanceledWatchers:  h.canceled.Load(),
	}
	if m.NaiveExtractions > m.Evaluations {
		m.SavedExtractions = m.NaiveExtractions - m.Evaluations
	}
	h.wmu.Lock()
	m.Classes = len(h.classes)
	var ws []*Watcher
	for _, cl := range h.classes {
		m.Retained += int(cl.retained.Load())
		for _, w := range cl.watchers {
			ws = append(ws, w)
		}
	}
	h.wmu.Unlock()
	m.Watchers = len(ws)
	if len(ws) > 0 {
		m.Queues = map[string]QueueGauge{}
		for _, w := range ws {
			g := m.Queues[w.policy.String()]
			g.Watchers++
			g.Depth += w.Depth()
			if lag := w.Lag(); lag > g.MaxLag {
				g.MaxLag = lag
			}
			g.Dropped += w.Dropped()
			m.Queues[w.policy.String()] = g
		}
	}
	return m
}
