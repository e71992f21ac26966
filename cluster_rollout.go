package adasense

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"adasense/internal/reqtrace"
)

// maxPulledModelBytes bounds a catch-up model download; it matches the
// gateway server's own upload cap.
const maxPulledModelBytes = 64 << 20

// StartRollout begins a staged canary rollout of the candidate model
// container across the fleet: the local gateway starts it (validating
// the container, honoring the frozen list), then the bytes are
// replicated to every peer on POST /v1/rollout with ReplicatedHeader
// set, so each replica starts its own controller over the same
// candidate. The rollout policy is not shipped: every replica applies
// its own configured `-rollout-*` policy, which fleets keep identical
// the same way they keep ring parameters identical.
//
// From then on each replica evaluates its local traffic; the first
// replica to decide a stage transition replicates it (the transitions
// are idempotent, so concurrent equal decisions collapse). Like
// SwapModel, the fan-out is detached from ctx once the local start has
// committed; results come back per replica with the joined error of
// every failure.
func (c *Cluster) StartRollout(ctx context.Context, model []byte, cfg RolloutConfig) (RolloutStatus, []SwapResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return RolloutStatus{}, nil, err
	}
	st, err := c.gw.StartRollout(model, cfg)
	if err != nil {
		return RolloutStatus{}, nil, err
	}
	ctx = context.WithoutCancel(ctx)
	members := c.Members()
	results := make([]SwapResult, len(members))
	done := make(chan int, len(members))
	for i, rep := range members {
		if rep.ID == c.self {
			results[i] = SwapResult{Replica: rep.ID, Attempts: 1}
			done <- i
			continue
		}
		go func(i int, rep Replica) {
			results[i] = c.pushBytes(ctx, http.MethodPost, rep, "/v1/rollout", "application/octet-stream", model)
			done <- i
		}(i, rep)
	}
	for range members {
		<-done
	}
	errs := make([]error, 0, len(members))
	for _, res := range results {
		if res.Err != nil {
			errs = append(errs, fmt.Errorf("replica %q (%d attempts): %w", res.Replica, res.Attempts, res.Err))
		}
	}
	return st, results, errors.Join(errs...)
}

// AbortRollout rolls the fleet's active rollout back by operator
// decision. The local gateway applies the abort; the resulting
// transition replicates to every peer through the cluster's notify
// hook, exactly like an automatic promote or rollback.
func (c *Cluster) AbortRollout(reason string) (RolloutStatus, error) {
	return c.gw.AbortRollout(reason)
}

// replicateTransition is the gateway's rolloutNotify hook: it fans one
// locally decided stage transition out to every peer on
// POST /v1/rollout/stage. Delivery is asynchronous — the gateway calls
// the hook under its rollout mutex, and a transition is already safe to
// deliver late or twice (Advance/Complete/Rollback are idempotent and
// monotonic), so nothing is gained by blocking the control plane on
// peer round-trips.
func (c *Cluster) replicateTransition(tr RolloutTransition) {
	body, err := json.Marshal(tr)
	if err != nil {
		return
	}
	// The transition fan-out starts from the control plane, not from a
	// client request, so it minted its own trace id: every peer's record
	// of this stage change correlates under one identity.
	ctx := reqtrace.NewContext(context.Background(), reqtrace.New())
	for _, rep := range c.Members() {
		if rep.ID == c.self {
			continue
		}
		go c.pushBytes(ctx, http.MethodPost, rep, "/v1/rollout/stage", "application/json", body)
	}
}

// ObserveModelGen notes a model generation advertised by peer on an
// incoming federation request. When it is ahead of the local gateway's,
// a single background pull of GET <peer>/v1/model installs the newer
// model — how a replica that joined after a fleet-wide push (or missed
// one) converges without an operator re-push. At most one pull runs at
// a time; repeat observations while one is in flight are dropped.
func (c *Cluster) ObserveModelGen(peer string, gen uint64) {
	if gen <= c.gw.ModelGeneration() || !c.IsPeer(peer) {
		return
	}
	if !c.pulling.CompareAndSwap(false, true) {
		return
	}
	rep := c.view.Load().replicas[peer]
	go func() {
		defer c.pulling.Store(false)
		c.pullModel(rep)
	}()
}

// pullModel downloads peer's current model container and installs it at
// the peer's generation. Failures only count the peer-error series —
// the next observed request re-arms the pull.
func (c *Cluster) pullModel(rep Replica) error {
	req, err := http.NewRequest(http.MethodGet, rep.URL+"/v1/model", nil)
	if err != nil {
		return err
	}
	// A catch-up pull is background work with no originating request;
	// mint a fresh trace so the download is identifiable on both ends.
	stampTrace(req.Header, reqtrace.New())
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.gw.tel.PeerErrors.Add(1)
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.gw.tel.PeerErrors.Add(1)
		return fmt.Errorf("adasense: peer %q answered %d to model pull", rep.ID, resp.StatusCode)
	}
	// The response header carries the generation the body was serialized
	// at — authoritative over whatever observation triggered the pull.
	gen, err := strconv.ParseUint(resp.Header.Get(ModelGenHeader), 10, 64)
	if err != nil {
		c.gw.tel.PeerErrors.Add(1)
		return fmt.Errorf("adasense: peer %q sent no model generation: %w", rep.ID, err)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxPulledModelBytes))
	if err != nil {
		c.gw.tel.PeerErrors.Add(1)
		return err
	}
	if gen <= c.gw.ModelGeneration() {
		return nil // raced a local swap past the peer; nothing newer
	}
	sys, err := LoadSystem(bytes.NewReader(data))
	if err != nil {
		c.gw.tel.PeerErrors.Add(1)
		return err
	}
	if err := c.gw.InstallModel(sys, gen); err != nil {
		// A rollout began while the pull was in flight; the rollout's
		// own completion will set the fleet's model.
		return err
	}
	c.gw.tel.ModelCatchups.Add(1)
	return nil
}
