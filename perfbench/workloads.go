package main

import "fmt"

// workloadNames lists the workloads in the order README.md describes them.
var workloadNames = []string{"trace-serve", "tpch-execute", "retrain"}

func newWorkload(name string) (bench, error) {
	switch name {
	case "trace-serve":
		return &traceServe{}, nil
	case "tpch-execute":
		return &tpchExecute{}, nil
	case "retrain":
		return &retrainBench{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
