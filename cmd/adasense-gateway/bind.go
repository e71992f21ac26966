package main

import (
	"errors"
	"fmt"

	"adasense"
)

// movedError is bind's answer when the ring moved the device to another
// replica while its session was being registered. It unwraps to
// adasense.ErrSessionNotFound, so the HTTP door answers 404 and the
// device goes back through the ring; the stream door redirects to owner.
type movedError struct {
	device string
	owner  adasense.Replica
}

func (e *movedError) Error() string {
	return fmt.Sprintf("%v: %q rebalanced to %q mid-bind", adasense.ErrSessionNotFound, e.device, e.owner.ID)
}

func (e *movedError) Unwrap() error { return adasense.ErrSessionNotFound }

// bind resolves a device's session for an ingest door: the live one if
// any, else one minted by mint — gw.Open for a stream hello, adopt for
// an HTTP push. A mint that loses an open race (ErrSessionExists, e.g.
// against the device's own traffic on the other door) takes the winner.
// A session bound through mint has its ownership re-checked and fails
// with *movedError if a rebalance moved the device meanwhile. resumed
// reports whether the session existed before this call.
func (s *server) bind(device string, mint func(string) (*adasense.GatewaySession, error)) (sess *adasense.GatewaySession, resumed bool, err error) {
	if live, ok := s.gw.Lookup(device); ok {
		return live, true, nil
	}
	sess, err = mint(device)
	if errors.Is(err, adasense.ErrSessionExists) {
		var ok bool
		if sess, ok = s.gw.Lookup(device); !ok {
			return nil, false, fmt.Errorf("%w: %q lost mid-open", adasense.ErrSessionNotFound, device)
		}
		resumed, err = true, nil
	}
	if err != nil {
		return nil, false, err
	}
	if owner, moved := s.recheckOwner(sess, !resumed); moved {
		return nil, false, &movedError{device: device, owner: owner}
	}
	return sess, resumed, nil
}

// recheckOwner runs once a session's registration is visible: a
// rebalance landing mid-registration may already have swept the
// registry, and the session must not linger on a replica that no longer
// owns its device (a ghost no later sweep would catch). If the ring
// moved the device it returns the new owner and closes the session when
// the caller minted it; a session the caller found belongs to the
// rebalance sweep.
func (s *server) recheckOwner(sess *adasense.GatewaySession, minted bool) (owner adasense.Replica, moved bool) {
	if s.cluster == nil {
		return adasense.Replica{}, false
	}
	owner, local := s.cluster.Route(sess.ID())
	if !local && minted {
		sess.Close()
	}
	return owner, !local
}

// adopt is the HTTP push path's mint: the cold half of rebalance
// handoff. On a federated gateway, a device this replica's ring assigns
// here but holds no session for is adopted on the spot: either the
// departing owner's state snapshot never arrived (old owner dead,
// container rejected, stateful handoff disabled) or the device outran
// the transfer — and the device's next pushed batch transparently
// re-creates the session cold on the new owner. Only the push path
// adopts — it is the device's actual workload, it spends the device's
// rate-limit tokens, and restricting adoption to it keeps DELETE
// observable and keeps read-only GETs from minting sessions. Devices
// owned elsewhere (and any id on a standalone gateway) answer
// ErrSessionNotFound.
func (s *server) adopt(device string) (*adasense.GatewaySession, error) {
	if s.cluster == nil || !s.cluster.Owns(device) {
		return nil, fmt.Errorf("%w: %q", adasense.ErrSessionNotFound, device)
	}
	return s.gw.AdoptSession(device)
}
