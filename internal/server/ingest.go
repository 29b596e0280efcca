package server

import (
	"fmt"

	"probpref/internal/ppd"
)

// IngestSessionJSON is the wire form of one session to ingest: a center
// ranking over item ids plus Mallows (phi) or Generalized Mallows (phis)
// dispersion. It is the shared session wire form of ppd — the same schema
// the p-relation JSON files of ppdgen and the write-ahead-log records of
// the registry use, so an acked batch is logged byte-compatibly with how
// it arrived.
type IngestSessionJSON = ppd.SessionJSON

// IngestRequest is the body of POST /v1/sessions.
type IngestRequest struct {
	// Model names the registry model to grow; "" selects DefaultModel.
	Model string `json:"model,omitempty"`
	// Pref names the p-relation of the model the sessions append to.
	Pref string `json:"pref"`
	// Sessions are the sessions to append, in order.
	Sessions []IngestSessionJSON `json:"sessions"`
}

// IngestResponse is the wire form of POST /v1/sessions.
type IngestResponse struct {
	// Model is the grown model's name (resolved, never "").
	Model string `json:"model"`
	// Pref is the p-relation the sessions were appended to.
	Pref string `json:"pref"`
	// Appended counts the sessions this request added.
	Appended int `json:"appended"`
	// Sessions is the model's new total session count across p-relations.
	Sessions int `json:"sessions"`
	// PurgedSolves is always 0: ingest no longer purges the solve cache.
	// The field is kept so the wire form does not change.
	PurgedSolves int `json:"purged_solves"`
	// PurgedPlans is always 0, like PurgedSolves.
	PurgedPlans int `json:"purged_plans"`
}

// IngestSessions appends sessions to a model's p-relation. The append swaps
// the model's database under the registry's build lock, so queries that
// already opened the model finish on the pre-ingest version while new opens
// see the grown database. Nothing is purged: the solve and plan caches are
// content-addressed — solve keys embed the session model, plan keys the
// reference ranking and union shape — so every entry stays valid for the
// grown model, and an appended session whose (sigma, phi) pair the model
// already holds lands in groups that are already solved. The grown version
// also inherits the grounding memo of the one it replaces (see
// ppd.DB.AppendSessions), so a repeated query grounds only the appended
// sessions. Sessions with identical parameters share one model instance,
// preserving the grouping behavior of the evaluator, exactly like
// ppd.LoadPrefJSON.
func (s *Service) IngestSessions(req *IngestRequest) (*IngestResponse, error) {
	model := ModelName(req.Model)
	if req.Pref == "" {
		return nil, fmt.Errorf("missing pref")
	}
	if len(req.Sessions) == 0 {
		return nil, fmt.Errorf("empty sessions")
	}
	parsed, err := ppd.ParseSessionsJSON(req.Sessions)
	if err != nil {
		return nil, err
	}
	total, err := s.reg.Append(model, req.Pref, parsed)
	if err != nil {
		return nil, err
	}
	if s.ingestSwappedHook != nil {
		s.ingestSwappedHook(model)
	}
	return &IngestResponse{Model: model, Pref: req.Pref, Appended: len(parsed), Sessions: total}, nil
}
