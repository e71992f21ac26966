package adasense

import (
	"bytes"
	"errors"
	"fmt"
	"io"

	"adasense/internal/hashring"
	"adasense/internal/rollout"
)

// Rollout errors. The HTTP front end maps them onto status codes
// (409 / 404 / 423).
var (
	// ErrRolloutActive reports a model swap or rollout start while
	// another rollout is still observing — an operator push must not
	// silently clobber a half-promoted canary.
	ErrRolloutActive = errors.New("adasense: rollout in progress")
	// ErrNoRollout reports a rollout operation when none has ever run.
	ErrNoRollout = errors.New("adasense: no rollout")
	// ErrRolloutFrozen reports a rollout start of a candidate container
	// that a previous rollout rolled back on a health gate: the same
	// bytes cannot be re-canaried until the freeze is lifted (restart,
	// or ship a retrained container with a different hash).
	ErrRolloutFrozen = errors.New("adasense: candidate frozen by an earlier rollback")
)

// RolloutConfig parameterizes a staged rollout: stage fractions,
// observation window, and health-gate tolerances.
type RolloutConfig = rollout.Config

// RolloutStatus is the externally visible snapshot of a rollout — the
// payload behind GET /v1/rollout.
type RolloutStatus = rollout.Status

// RolloutHealth is one serving arm's observation-window snapshot.
type RolloutHealth = rollout.Health

// DefaultRolloutConfig returns the default rollout policy: a 5% → 25%
// → 100% cohort ladder, a one-minute observation window, 200 samples
// per arm, and the default gate tolerances.
func DefaultRolloutConfig() RolloutConfig { return rollout.Default() }

// CandidateHash identifies a candidate model container: the hash of its
// serialized bytes in the placement ring's hash space, so cohort
// membership derived from it is identical on every replica.
func CandidateHash(data []byte) uint64 {
	return hashring.DefaultHash(string(data))
}

// activeRollout pairs the stage machine with the canary service it
// gates traffic onto. The candidate System is kept so completion can
// publish it as the gateway's current model.
type activeRollout struct {
	ctl    *rollout.Controller
	canary *Service
}

// RolloutTransition describes one applied stage-machine transition, as
// handed to the cluster layer for fleet-wide replication.
type RolloutTransition struct {
	CandidateHash uint64 `json:"candidate_hash"`
	Action        string `json:"action"`
	ToStage       int    `json:"to_stage"`
	Reason        string `json:"reason"`
}

// StartRollout begins a staged rollout of the candidate model container
// in data: the container is validated and wrapped in a canary service,
// and devices inside the first stage's ring-slice cohort are re-pinned
// onto it — everyone else keeps serving the incumbent. At most one
// rollout is active at a time (ErrRolloutActive), and a candidate that
// a previous rollout rolled back on a health gate is frozen
// (ErrRolloutFrozen).
//
// From here the rollout drives itself: serving traffic feeds both arms'
// health windows, and evaluation (piggybacked on pushes, plus any
// RolloutTick ticker) promotes through cfg.Stages or rolls back per the
// gates. The decision is local to this gateway; under a Cluster, stage
// transitions replicate so the fleet agrees.
func (gw *Gateway) StartRollout(data []byte, cfg RolloutConfig) (RolloutStatus, error) {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	if gw.draining.Load() {
		return RolloutStatus{}, fmt.Errorf("%w: rejecting rollout start", ErrGatewayDraining)
	}
	if ar := gw.rollouts.active.Load(); ar != nil {
		return RolloutStatus{}, fmt.Errorf("%w: candidate %016x at stage %d",
			ErrRolloutActive, ar.ctl.Candidate(), ar.ctl.Stage())
	}
	hash := CandidateHash(data)
	if reason, frozen := gw.rollouts.frozen[hash]; frozen {
		return RolloutStatus{}, fmt.Errorf("%w: %016x (%s)", ErrRolloutFrozen, hash, reason)
	}
	sys, err := LoadSystem(bytes.NewReader(data))
	if err != nil {
		return RolloutStatus{}, fmt.Errorf("adasense: rollout candidate rejected: %w", err)
	}
	svc, err := NewService(sys, gw.cfg.svcOpts...)
	if err != nil {
		return RolloutStatus{}, fmt.Errorf("adasense: rollout candidate rejected: %w", err)
	}
	svc.tel = gw.tel
	svc.lat = &gw.lat
	ctl, err := rollout.New(cfg, hash, gw.cfg.clock())
	if err != nil {
		return RolloutStatus{}, fmt.Errorf("adasense: %w", err)
	}
	gw.rollouts.active.Store(&activeRollout{ctl: ctl, canary: svc})
	gw.repinSessions()
	return ctl.Status(), nil
}

// AbortRollout rolls the active rollout back by operator decision:
// every cohort device returns to the incumbent. Unlike a health-gate
// rollback, an abort does not freeze the candidate hash — the same
// container may be rolled out again. Returns the settled status, or
// ErrNoRollout when nothing is active.
func (gw *Gateway) AbortRollout(reason string) (RolloutStatus, error) {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	ar := gw.rollouts.active.Load()
	if ar == nil {
		return RolloutStatus{}, fmt.Errorf("%w: nothing to abort", ErrNoRollout)
	}
	if reason == "" {
		reason = "operator abort"
	}
	gw.applyRolloutLocked(ar, rollout.ActionAbort, ar.ctl.Stage(), reason, true)
	return ar.ctl.Status(), nil
}

// RolloutStatus returns the active rollout's live status, or the final
// status of the last settled one. ErrNoRollout means no rollout has
// run since the gateway started.
func (gw *Gateway) RolloutStatus() (RolloutStatus, error) {
	if ar := gw.rollouts.active.Load(); ar != nil {
		return ar.ctl.Status(), nil
	}
	if st := gw.rollouts.last.Load(); st != nil {
		return *st, nil
	}
	return RolloutStatus{}, ErrNoRollout
}

// RolloutActive reports whether a rollout is currently observing.
func (gw *Gateway) RolloutActive() bool { return gw.rollouts.active.Load() != nil }

// RolloutTick evaluates the active rollout's current stage and applies
// the verdict (promote / complete / rollback), reporting the action
// applied ("" while holding or with no active rollout). Evaluation
// also piggybacks on serving pushes, so a ticker is only needed to
// settle rollouts on fleets whose traffic can go quiet mid-stage.
func (gw *Gateway) RolloutTick() string {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	return gw.rolloutTickLocked()
}

func (gw *Gateway) rolloutTickLocked() string {
	ar := gw.rollouts.active.Load()
	if ar == nil {
		return ""
	}
	v := ar.ctl.Evaluate(gw.cfg.clock())
	if v.Action == "" {
		return ""
	}
	to := ar.ctl.Stage()
	if v.Action == rollout.ActionPromote {
		to++
	}
	if !gw.applyRolloutLocked(ar, v.Action, to, v.Reason, true) {
		return ""
	}
	return v.Action
}

// rolloutMaybeTick is the push-path evaluation hook: opportunistic
// (TryLock — a contended tick is happening anyway) and cheap when idle.
func (gw *Gateway) rolloutMaybeTick() {
	if gw.rollouts.active.Load() == nil {
		return
	}
	if !gw.rolloutMu.TryLock() {
		return
	}
	defer gw.rolloutMu.Unlock()
	gw.rolloutTickLocked()
}

// ApplyRolloutTransition applies a stage transition decided elsewhere
// in the fleet (replicated by the cluster layer). It is idempotent: a
// duplicate or stale transition reports false with no error — including
// a settling transition arriving after this replica already settled the
// same candidate itself, the normal case when two replicas decide
// concurrently. A transition for a candidate hash this replica has
// never seen reports ErrNoRollout — it missed the start.
func (gw *Gateway) ApplyRolloutTransition(tr RolloutTransition) (bool, error) {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	ar := gw.rollouts.active.Load()
	if ar == nil || ar.ctl.Candidate() != tr.CandidateHash {
		if last := gw.rollouts.last.Load(); last != nil && last.CandidateHash == fmt.Sprintf("%016x", tr.CandidateHash) {
			return false, nil
		}
		return false, fmt.Errorf("%w: no active rollout for candidate %016x", ErrNoRollout, tr.CandidateHash)
	}
	switch tr.Action {
	case rollout.ActionPromote, rollout.ActionComplete, rollout.ActionRollback, rollout.ActionAbort:
	default:
		return false, fmt.Errorf("adasense: unknown rollout action %q", tr.Action)
	}
	return gw.applyRolloutLocked(ar, tr.Action, tr.ToStage, tr.Reason, false), nil
}

// applyRolloutLocked performs one stage-machine transition under
// rolloutMu: it drives the controller, re-pins affected sessions,
// settles completion/rollback (including publishing the canary as the
// new current model on completion, and freezing the candidate on a
// health rollback), and — for locally decided transitions — hands the
// transition to the cluster notify hook for fleet-wide replication.
// Reports whether the transition actually applied (false on stale or
// duplicate transitions, which keeps replication idempotent).
func (gw *Gateway) applyRolloutLocked(ar *activeRollout, action string, to int, reason string, local bool) bool {
	now := gw.cfg.clock()
	switch action {
	case rollout.ActionPromote:
		if !ar.ctl.Advance(to, now, reason) {
			return false
		}
	case rollout.ActionComplete:
		if !ar.ctl.Complete(now, reason) {
			return false
		}
		// The canary is the fleet's model now: publish it for new
		// sessions and one-shot classifies, and advance the model
		// generation so lagging replicas catch up by pulling it. The
		// canary service gains its generation pin here — until
		// promotion it carried 0, so state snapshots never grafted
		// incumbent trajectories onto the canary arm.
		gw.swapMu.Lock()
		ar.canary.gen = gw.modelGen.Load() + 1
		gw.cur.Store(ar.canary)
		gw.modelGen.Add(1)
		gw.swapMu.Unlock()
		gw.tel.ModelSwaps.Add(1)
		gw.tel.RolloutsPromoted.Add(1)
		gw.settleRollout(ar)
	case rollout.ActionRollback, rollout.ActionAbort:
		if !ar.ctl.Rollback(now, action, reason) {
			return false
		}
		if action == rollout.ActionRollback {
			gw.rollouts.frozen[ar.ctl.Candidate()] = reason
		}
		gw.tel.RolloutsRolledBack.Add(1)
		gw.settleRollout(ar)
	default:
		return false
	}
	gw.repinSessions()
	if local && gw.rolloutNotify != nil {
		gw.rolloutNotify(RolloutTransition{
			CandidateHash: ar.ctl.Candidate(), Action: action, ToStage: to, Reason: reason,
		})
	}
	return true
}

// settleRollout retires the active rollout, retaining its final status
// for GET /v1/rollout.
func (gw *Gateway) settleRollout(ar *activeRollout) {
	st := ar.ctl.Status()
	gw.rollouts.last.Store(&st)
	gw.rollouts.active.Store(nil)
}

// serviceFor resolves the service a device's session must pin to: the
// canary while an active rollout has the device in the current cohort,
// the gateway's current service otherwise.
func (gw *Gateway) serviceFor(id string) *Service {
	if ar := gw.rollouts.active.Load(); ar != nil && ar.ctl.InCohort(id) {
		return ar.canary
	}
	return gw.cur.Load()
}

// repinSessions sweeps the registry after a rollout transition,
// re-pinning every session whose device's cohort membership changed:
// newly cohorted devices move onto the canary, and a rollback returns
// every canary device to the incumbent. Devices outside the cohort are
// untouched mid-stage. Unlike Migrate, a re-pin deliberately mints a
// fresh engine with no state carry-over: both rollout arms must be
// judged from the same warm-up footing, and a rollback must discard
// whatever trajectory the canary induced.
func (gw *Gateway) repinSessions() {
	gw.reg.Range(func(id string, gs *GatewaySession) bool {
		gs.repin()
		return true
	})
}

// repin re-resolves the session's service pin, swapping engines only
// when the rollout-aware resolution differs from the current pin. On a
// re-open failure the old pin is kept — the session keeps serving.
func (s *GatewaySession) repin() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.sess == nil {
		return
	}
	want := s.gw.serviceFor(s.id)
	if s.sess.svc == want {
		return
	}
	fresh, err := want.OpenSession(s.id)
	if err != nil {
		return
	}
	s.sess.Close()
	s.sess = fresh
}

// rolloutObserve feeds one push's classification events into the active
// rollout's health window, attributed to the arm (canary or incumbent)
// of the service the events were produced on. The power reading is the
// estimated sensor current of the configuration each event left in
// effect — the power half of the paper's accuracy/power trade-off,
// aggregated fleet-wide.
func (gw *Gateway) rolloutObserve(svc *Service, events []Event) {
	ar := gw.rollouts.active.Load()
	if ar == nil || len(events) == 0 {
		return
	}
	canary := svc == ar.canary
	power := svc.PowerModel()
	for _, ev := range events {
		ar.ctl.Record(canary, int(ev.Classification.Activity), ev.Classification.Confidence, power.CurrentUA(ev.Config))
	}
	if canary {
		gw.tel.RolloutCanaryClassifies.Add(uint64(len(events)))
	}
}

// rolloutObserveError attributes one failed push to the arm that
// served it.
func (gw *Gateway) rolloutObserveError(svc *Service) {
	ar := gw.rollouts.active.Load()
	if ar == nil || svc == nil {
		return
	}
	ar.ctl.RecordError(svc == ar.canary)
}

// ModelGeneration returns the gateway's model generation: 1 at
// startup, advanced by every SwapModel, rollout completion, and
// installed catch-up pull. Generations order models fleet-wide so a
// replica can tell from a request header that a peer serves a newer
// model than it does.
func (gw *Gateway) ModelGeneration() uint64 { return gw.modelGen.Load() }

// InstallModel installs a model shipped by a peer at the peer's
// generation: the gateway adopts max(local+1, gen) so generations stay
// monotonic on both the pushing and the pulling side. Like SwapModel it
// is rejected while a rollout is observing.
func (gw *Gateway) InstallModel(sys *System, gen uint64) error {
	gw.rolloutMu.Lock()
	defer gw.rolloutMu.Unlock()
	if gw.rollouts.active.Load() != nil {
		return fmt.Errorf("%w: refusing model install", ErrRolloutActive)
	}
	svc, err := NewService(sys, gw.cfg.svcOpts...)
	if err != nil {
		return fmt.Errorf("adasense: install rejected: %w", err)
	}
	svc.tel = gw.tel
	svc.lat = &gw.lat
	gw.swapMu.Lock()
	next := gw.modelGen.Load() + 1
	if gen > next {
		next = gen
	}
	svc.gen = next
	gw.cur.Store(svc)
	gw.modelGen.Store(next)
	gw.swapMu.Unlock()
	gw.tel.ModelSwaps.Add(1)
	return nil
}

// WriteModel serializes the gateway's current model container to w and
// returns the generation it was serving at — the payload behind
// GET /v1/model, which is how a lagging replica catches up to the
// fleet's model without an operator re-push.
func (gw *Gateway) WriteModel(w io.Writer) (uint64, error) {
	// Snapshot (service, generation) as a pair under swapMu — both are
	// only stored under it — then serialize outside the lock so a slow
	// reader cannot block swaps.
	gw.swapMu.Lock()
	svc, gen := gw.cur.Load(), gw.modelGen.Load()
	gw.swapMu.Unlock()
	if err := svc.System().Save(w); err != nil {
		return 0, err
	}
	return gen, nil
}

// rolloutStageGauge is the value of the adasense_rollout_stage gauge:
// the active rollout's stage index, or -1 while none is observing.
func (gw *Gateway) rolloutStageGauge() (stage int, fraction float64) {
	ar := gw.rollouts.active.Load()
	if ar == nil {
		return -1, 0
	}
	return ar.ctl.Stage(), ar.ctl.Fraction()
}
