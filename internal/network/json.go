package network

import (
	"encoding/json"
	"fmt"
	"io"

	"rta/internal/envelope"
	"rta/internal/model"
)

// The JSON document format for cmd/rta-net:
//
//	{
//	  "links": [
//	    {"name": "edge1", "scheduler": "SPNP", "bytesPerTick": 100,
//	     "propagation": 10}, ...
//	  ],
//	  "flows": [
//	    {"name": "telemetry", "path": ["edge1", "backbone"],
//	     "packetBytes": 500, "priority": 0, "deadline": 2000,
//	     "releases": [0, 1000, 2000]},
//	    {"name": "camera", "path": ["edge2", "backbone"],
//	     "packetBytes": 9000, "priority": 1, "deadline": 50000,
//	     "envelope": {"minGaps": [0, 0, 2000, 4000]}, "packets": 12}
//	  ]
//	}
//
// A flow carries either "releases" or "envelope"+"packets".

type jsonLink struct {
	Name         string          `json:"name"`
	Sched        model.Scheduler `json:"scheduler"`
	BytesPerTick int64           `json:"bytesPerTick"`
	Propagation  model.Ticks     `json:"propagation,omitempty"`
}

type jsonEnvelope struct {
	MinGaps []model.Ticks `json:"minGaps"`
}

type jsonFlow struct {
	Name        string        `json:"name"`
	Path        []string      `json:"path"`
	PacketBytes int64         `json:"packetBytes"`
	Priority    int           `json:"priority,omitempty"`
	Deadline    model.Ticks   `json:"deadline"`
	Releases    []model.Ticks `json:"releases,omitempty"`
	Envelope    *jsonEnvelope `json:"envelope,omitempty"`
	Packets     int           `json:"packets,omitempty"`
}

type jsonNet struct {
	Links []jsonLink `json:"links"`
	Flows []jsonFlow `json:"flows"`
}

// Load reads a network description from JSON.
func Load(r io.Reader) (*Net, error) {
	var doc jsonNet
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("network: decoding: %w", err)
	}
	n := &Net{}
	for _, l := range doc.Links {
		n.Links = append(n.Links, Link{
			Name: l.Name, Sched: l.Sched,
			BytesPerTick: l.BytesPerTick, Propagation: l.Propagation,
		})
	}
	for _, f := range doc.Flows {
		flow := Flow{
			Name: f.Name, Path: f.Path, PacketBytes: f.PacketBytes,
			Priority: f.Priority, Deadline: f.Deadline,
			Releases: f.Releases, Packets: f.Packets,
		}
		if f.Envelope != nil {
			e := envelope.Envelope{MinGap: f.Envelope.MinGaps}
			if err := e.Validate(); err != nil {
				return nil, fmt.Errorf("network: flow %q: %w", f.Name, err)
			}
			flow.Envelope = &e
		}
		n.Flows = append(n.Flows, flow)
	}
	return n, nil
}
