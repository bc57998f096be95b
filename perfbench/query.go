package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"

	"cleo/internal/plan"
	"cleo/internal/serve"
)

// queryRequest encodes a /v1/query body, its traced variant and its plan.
func queryRequest(q serve.QueryRequest) (request, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return request{}, fmt.Errorf("encode query: %w", err)
	}
	q.Trace = true
	traced, err := json.Marshal(q)
	if err != nil {
		return request{}, fmt.Errorf("encode query: %w", err)
	}
	planJSON, err := json.Marshal(q.Plan)
	if err != nil {
		return request{}, fmt.Errorf("encode plan: %w", err)
	}
	return request{tenant: q.Tenant, path: "/v1/query", body: body, traced: traced, plan: planJSON}, nil
}

// retrainRequest encodes a /v1/retrain body.
func retrainRequest(tenant string) request {
	body, _ := json.Marshal(serve.RetrainRequest{Tenant: tenant}) // a struct of one string cannot fail
	return request{tenant: tenant, path: "/v1/retrain", body: body}
}

// queryResult is the part of a /v1/query response the checks read.
type queryResult struct {
	UsedLearned         bool             `json:"used_learned"`
	ModelVersion        int64            `json:"model_version"`
	Plan                string           `json:"plan"`
	Summary             plan.PlanSummary `json:"summary"`
	PredictedCost       float64          `json:"predicted_cost"`
	Latency             float64          `json:"latency"`
	TotalProcessingTime float64          `json:"total_processing_time"`
	Containers          int              `json:"containers"`
	OutputRows          uint64           `json:"output_rows"`
	OutputChecksum      uint64           `json:"output_checksum"`
}

// retrainResult is a /v1/retrain response.
type retrainResult struct {
	Version serve.ModelVersionInfo `json:"version"`
}

// tenantSeed is the simulated-cluster seed the service derives for a
// tenant by default (FNV-1a of the name), recomputed here so reference
// systems built by the checks see the same hidden cluster.
func tenantSeed(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func boolPtr(b bool) *bool { return &b }
