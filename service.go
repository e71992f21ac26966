package adasense

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adasense/internal/core"
	"adasense/internal/features"
	"adasense/internal/rng"
	"adasense/internal/sensor"
	"adasense/internal/sim"
	"adasense/internal/telemetry"
)

// Batch is a contiguous run of 3-axis readings produced under a single
// sensor configuration — the unit applications push into a Session.
type Batch = sensor.Batch

// BatchError is the error Session.Push and Service.Classify return for a
// batch they refuse before touching any state: axes of unequal or zero
// length, or a reading that is NaN, infinite or beyond ±1000 g
// (sensor.MaxAbsReading). The gateway's HTTP door answers it with 400,
// its ADSP door with a bad-batch error frame on a connection that stays
// open.
type BatchError = sensor.BatchError

// NoiseModel is the sensor's stochastic reading model.
type NoiseModel = sensor.NoiseModel

// DefaultNoiseModel returns BMI160-class noise constants.
func DefaultNoiseModel() NoiseModel { return sensor.DefaultNoiseModel() }

// Sampler draws noisy, quantized readings from a synthetic motion signal;
// it is the software stand-in for a real IMU's data path.
type Sampler = sensor.Sampler

// NewSampler returns a deterministic sampler with the given noise model.
func NewSampler(noise NoiseModel, seed uint64) *Sampler {
	return sensor.NewSampler(noise, rng.New(seed))
}

// AdaSense serves at one operating point: the paper's 2 s classification
// window advanced by a 1 s hop, over BMI160-class sensor power and noise
// models and a Cortex-M4-class MCU model (sensor.DefaultPowerModel,
// sensor.DefaultNoiseModel, mcu.Default). Every session snapshot records
// the geometry, and a restore refuses any other.
const (
	windowSec = 2
	hopSec    = 1
)

// serviceConfig holds the shared defaults a Service applies to every
// session and simulation it creates.
type serviceConfig struct {
	newController func() Controller
}

// Option configures a Service. Options are applied in order at
// NewService time; a failing option aborts construction.
type Option func(*serviceConfig) error

// WithControllerFactory sets the factory minting each session's (and each
// RunMany worker's) adaptation policy. The factory must return a fresh,
// unshared Controller on every call; it may be invoked from multiple
// goroutines. The default is NewSPOTWithConfidence(10), the paper's
// operating point.
func WithControllerFactory(f func() Controller) Option {
	return func(c *serviceConfig) error {
		if f == nil {
			return fmt.Errorf("adasense: nil controller factory")
		}
		c.newController = f
		return nil
	}
}

// Service is the concurrent serving layer over one immutable trained
// System: the deployment shape of the paper's central design, where a
// single shared classifier serves every sensor configuration — and, here,
// every connected device. A Service is safe for concurrent use by many
// goroutines: OpenSession, Classify, Run and RunMany may all be called
// simultaneously. Pipeline scratch buffers are recycled through an
// internal sync.Pool, so steady-state serving does not allocate per
// session or per one-shot classification.
//
// The Service never mutates its System; swapping in a retrained model
// means building a new Service, leaving sessions on the old one
// undisturbed.
type Service struct {
	sys *System
	cfg serviceConfig

	pipes sync.Pool // *Pipeline, all over sys's shared network
	// ext is the one feature extractor every pipeline shares: it is
	// immutable, and its Goertzel coefficient tables are built once.
	ext *features.Extractor

	// tel counts the service's data path (classify calls, batches,
	// events, pool hits/misses). Always non-nil; a Gateway replaces it
	// with its own shared counter set before publishing the service, so
	// counters survive model hot-swaps.
	tel *telemetry.Counters

	// lat, when non-nil, receives per-stage latency observations from
	// pipelines this service checks out (feature extraction, forward
	// pass). A Gateway points it at its own histogram set before
	// publishing the service; a bare Service leaves it nil and pays
	// nothing on the classify path.
	lat *telemetry.Latencies

	// gen is the gateway model generation this service was published
	// under; session snapshots pin it so a restore onto a different
	// model is refused. A bare Service stays at 0. Set before the
	// service is published, never mutated after.
	gen uint64
}

// NewService wraps a trained system in a serving layer. The options set
// the defaults shared by every session and simulation; omitted options
// keep the paper's SPOT-with-confidence controller at a 10 s threshold.
func NewService(sys *System, opts ...Option) (*Service, error) {
	if sys == nil || sys.Network == nil {
		return nil, fmt.Errorf("adasense: NewService needs a trained system")
	}
	cfg := serviceConfig{
		newController: func() Controller { return NewSPOTWithConfidence(10) },
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	// Surface feature-layout mismatches now rather than on first use; the
	// validation pipeline seeds the pool.
	p, err := sys.NewPipeline()
	if err != nil {
		return nil, err
	}
	svc := &Service{sys: sys, cfg: cfg, ext: p.Extractor(), tel: &telemetry.Counters{}}
	svc.pipes.Put(p)
	return svc, nil
}

// System returns the immutable trained system the service serves.
func (svc *Service) System() *System { return svc.sys }

// PowerModel returns the sensor power model the service charges
// sessions' energy estimates against.
func (svc *Service) PowerModel() PowerModel { return sensor.DefaultPowerModel() }

// acquire checks a pipeline out of the pool, building a fresh one on a
// pool miss. A build failure surfaces the underlying construction error
// (not a generic message), so callers can see why — e.g. a feature-layout
// mismatch after the System was mutated behind the service's back.
func (svc *Service) acquire() (*Pipeline, error) {
	if p, _ := svc.pipes.Get().(*Pipeline); p != nil {
		svc.tel.PoolHits.Add(1)
		svc.instrument(p)
		return p, nil
	}
	svc.tel.PoolMisses.Add(1)
	p, err := core.NewPipeline(svc.sys.Network, svc.ext)
	if err != nil {
		return nil, fmt.Errorf("adasense: building pipeline for shared classifier: %w", err)
	}
	svc.instrument(p)
	return p, nil
}

// instrument points the pipeline's stage hook at the service's latency
// histograms. The closure is minted once per pipeline (pipelines are
// pooled), not per classification, and only on instrumented services.
func (svc *Service) instrument(p *Pipeline) {
	if svc.lat == nil || p.Stages != nil {
		return
	}
	lat := svc.lat
	p.Stages = func(extract, classify time.Duration) {
		lat.ObserveStage(telemetry.StageExtract, extract)
		lat.ObserveStage(telemetry.StageClassify, classify)
	}
}

func (svc *Service) release(p *Pipeline) {
	if p != nil {
		svc.pipes.Put(p)
	}
}

// Classify runs one stateless classification of a raw sensor window. It
// is safe for concurrent use; scratch buffers come from the service's
// pool, so the call does not allocate in steady state.
func (svc *Service) Classify(b *Batch) (Classification, error) {
	if err := b.Validate(); err != nil {
		return Classification{}, err
	}
	return svc.classifyChecked(b)
}

// classifyChecked is Classify for a batch that already passed
// Batch.Validate.
func (svc *Service) classifyChecked(b *Batch) (Classification, error) {
	p, err := svc.acquire()
	if err != nil {
		return Classification{}, err
	}
	defer svc.release(p)
	svc.tel.ClassifyCalls.Add(1)
	return p.Classify(b), nil
}

// Session is one device's independent real-time serving state: an engine
// over the shared classifier plus a private controller, minted by
// Service.OpenSession. A Session is goroutine-confined — drive it from
// one goroutine (or guard it yourself); distinct sessions are fully
// independent and may run in parallel.
type Session struct {
	id     string
	svc    *Service
	engine *Engine
	pipe   *Pipeline
	closed bool

	// elapsedSec/chargeUC accumulate the device's sensing-energy
	// estimate across every pushed batch (the paper's battery-lifetime
	// metric, tracked live per device).
	elapsedSec float64
	chargeUC   float64
}

// OpenSession mints an independent session. The id is an opaque caller
// label (device id, user id) carried for bookkeeping. OpenSession is safe
// to call concurrently with every other Service method.
func (svc *Service) OpenSession(id string) (*Session, error) {
	pipe, err := svc.acquire()
	if err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(pipe, svc.cfg.newController(), windowSec, hopSec)
	if err != nil {
		svc.release(pipe)
		return nil, err
	}
	return &Session{id: id, svc: svc, engine: eng, pipe: pipe}, nil
}

// ID returns the caller-supplied session label.
func (s *Session) ID() string { return s.id }

// Config returns the sensor configuration the session's device must
// currently sample at.
func (s *Session) Config() Config { return s.engine.Config() }

// Push feeds a batch of raw readings sampled under the session's current
// configuration and returns the classification events it completed in a
// fresh slice. See Engine.Push for the switch-and-discard semantics on
// configuration changes.
func (s *Session) Push(b *Batch) ([]Event, error) { return s.PushAppend(nil, b) }

// PushAppend is Push appending the completed events to dst, which it
// returns extended (dst itself on error). A caller that reuses dst
// across pushes allocates nothing per push.
func (s *Session) PushAppend(dst []Event, b *Batch) ([]Event, error) {
	if s.closed {
		return dst, fmt.Errorf("adasense: session %q is closed", s.id)
	}
	if err := b.Validate(); err != nil {
		return dst, err
	}
	return s.pushChecked(dst, b)
}

// pushChecked is PushAppend after its two checks, for a caller that
// made them itself: GatewaySession.PushAppend checks the batch and its
// own closed flag under its lock, and an open GatewaySession always
// holds an open Session.
func (s *Session) pushChecked(dst []Event, b *Batch) ([]Event, error) {
	n := len(dst)
	dst, err := s.engine.PushChecked(dst, b)
	if err != nil {
		return dst, err
	}
	// The device sampled every reading in the batch at b.Config even
	// when a mid-batch switch discards the tail, so the whole duration
	// is charged at that configuration.
	s.elapsedSec += b.Duration()
	s.chargeUC += sensor.DefaultPowerModel().ChargeUC(b.Config, b.Duration())
	s.svc.tel.BatchesPushed.Add(1)
	if len(dst) > n {
		s.svc.tel.EventsEmitted.Add(uint64(len(dst) - n))
	}
	return dst, nil
}

// EnergyEstimate is a session's accumulated sensing-energy estimate:
// how long the device has been sampling and the modeled sensor charge
// that cost, per the service's PowerModel.
type EnergyEstimate struct {
	// ElapsedSec is the total sampled time across all pushed batches.
	ElapsedSec float64
	// ChargeUC is the modeled sensor charge consumed, in microcoulombs.
	ChargeUC float64
}

// AvgCurrentUA returns the average modeled sensor current in µA (0
// before any data).
func (e EnergyEstimate) AvgCurrentUA() float64 {
	if e.ElapsedSec <= 0 {
		return 0
	}
	return e.ChargeUC / e.ElapsedSec
}

// Energy returns the session's accumulated sensing-energy estimate.
func (s *Session) Energy() EnergyEstimate {
	return EnergyEstimate{ElapsedSec: s.elapsedSec, ChargeUC: s.chargeUC}
}

// Snapshot captures the session's live state — adaptation trajectory,
// window remainder, energy estimate, pinned model generation — as a
// SessionState ready for ADSS encoding. The session keeps running.
func (s *Session) Snapshot() (*SessionState, error) {
	st := &SessionState{}
	if err := s.SnapshotInto(st); err != nil {
		return nil, err
	}
	return st, nil
}

// SnapshotInto is Snapshot into a caller-owned SessionState, reusing its
// slices when they have capacity.
func (s *Session) SnapshotInto(st *SessionState) error {
	if s.closed {
		return fmt.Errorf("adasense: session %q is closed", s.id)
	}
	st.Generation = s.svc.gen
	st.WindowSec = windowSec
	st.HopSec = hopSec
	s.engine.SnapshotInto(&st.Engine)
	st.Energy = EnergyEstimate{ElapsedSec: s.elapsedSec, ChargeUC: s.chargeUC}
	return nil
}

// Restore replaces the session's state with a snapshot taken from a
// session with the same window/hop geometry and controller flavor. The
// model generation is NOT checked here (a bare Service has none);
// gateway-level restores enforce it. On error the session is left
// Reset, the cold-open state.
func (s *Session) Restore(st *SessionState) error {
	if s.closed {
		return fmt.Errorf("adasense: session %q is closed", s.id)
	}
	var err error
	switch {
	case st.WindowSec != windowSec || st.HopSec != hopSec:
		err = fmt.Errorf("adasense: snapshot geometry %v/%v differs from service %v/%v",
			st.WindowSec, st.HopSec, windowSec, hopSec)
	case !(st.Energy.ElapsedSec >= 0) || !(st.Energy.ChargeUC >= 0):
		err = fmt.Errorf("adasense: snapshot energy estimate %v s / %v µC is not non-negative",
			st.Energy.ElapsedSec, st.Energy.ChargeUC)
	default:
		err = s.engine.Restore(&st.Engine)
	}
	if err != nil {
		s.Reset()
		return err
	}
	s.elapsedSec = st.Energy.ElapsedSec
	s.chargeUC = st.Energy.ChargeUC
	return nil
}

// Reset returns the session's engine, controller and energy estimate to
// their initial state, as after OpenSession.
func (s *Session) Reset() {
	if !s.closed {
		s.engine.Reset()
		s.elapsedSec, s.chargeUC = 0, 0
	}
}

// Close releases the session's pipeline scratch buffers back to the
// service. Closing twice is a no-op; a closed session rejects Push,
// while Config keeps reporting the last configuration in effect.
func (s *Session) Close() {
	if s.closed {
		return
	}
	// The engine is kept: Config reads only session-local state. Push
	// and Reset are guarded, so the pooled pipeline is never touched
	// again through this session.
	s.closed = true
	s.svc.release(s.pipe)
	s.pipe = nil
}

// RunSpec describes one closed-loop simulation for Service.Run and
// Service.RunMany. The service fills in everything SimulationSpec would
// otherwise make every caller re-plumb: the window/hop geometry, the
// default power/noise/MCU models and (when Controller is nil) a fresh
// controller from the service's factory.
type RunSpec struct {
	// Motion is the ground-truth signal (required).
	Motion *Motion
	// Controller overrides the service's controller factory for this run.
	// It must not be shared with any other concurrently executing spec.
	Controller Controller
	// Seed drives the run's sampling noise; runs are deterministic given
	// (spec, seed).
	Seed uint64
	// Record enables trace recording; RecordAccel additionally records
	// raw per-sample readings (heavy).
	Record, RecordAccel bool
}

// Run executes one closed-loop simulation with the service's defaults.
// It is safe for concurrent use.
func (svc *Service) Run(ctx context.Context, spec RunSpec) (SimulationResult, error) {
	results, err := svc.RunMany(ctx, []RunSpec{spec}, 1)
	if err != nil {
		return SimulationResult{}, err
	}
	return results[0], nil
}

// RunMany fans the given closed-loop simulations across parallelism
// worker goroutines (GOMAXPROCS when <= 0) and returns one result per
// spec, in spec order. Workers reuse pooled pipelines, so the cost per
// run is the simulation itself.
//
// Partial-results contract: RunMany always returns a slice of
// len(specs). On success every entry is filled. When a run fails, the
// first failure is returned as the error and cancels the fan-out; when
// the context is canceled, workers stop claiming new specs and RunMany
// returns ctx.Err() promptly. In both cases each worker still finishes
// the spec it is on — a simulation is never abandoned mid-flight, and a
// completed run's result is never discarded — so the returned slice
// holds the result of every spec that started before the stop, while
// the entries of specs that never started stay zero-valued. Callers
// that care about partial progress should therefore check entries
// individually instead of discarding the slice on error.
func (svc *Service) RunMany(ctx context.Context, specs []RunSpec, parallelism int) ([]SimulationResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(specs) {
		parallelism = len(specs)
	}
	results := make([]SimulationResult, len(specs))
	if len(specs) == 0 {
		return results, ctx.Err()
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}

	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pipe, err := svc.acquire()
			if err != nil {
				fail(err)
				return
			}
			defer svc.release(pipe)
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) || ctx.Err() != nil {
					return
				}
				res, err := svc.runOne(specs[i], pipe)
				if err != nil {
					fail(fmt.Errorf("adasense: run %d: %w", i, err))
					return
				}
				results[i] = res
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return results, firstErr
	}
	return results, ctx.Err()
}

// runOne executes one spec on a worker-owned pipeline.
func (svc *Service) runOne(spec RunSpec, pipe *Pipeline) (SimulationResult, error) {
	ctl := spec.Controller
	if ctl == nil {
		ctl = svc.cfg.newController()
	}
	// Nil Power/Noise/MCU models take sim's defaults, the same hardware
	// models sessions are charged against.
	return sim.Run(sim.Spec{
		Motion:      spec.Motion,
		Controller:  ctl,
		Classifier:  pipe,
		WindowSec:   windowSec,
		HopSec:      hopSec,
		Record:      spec.Record,
		RecordAccel: spec.RecordAccel,
	}, rng.New(spec.Seed))
}
