"""Design export: from a synthesis result to a manufacturable spec.

Algorithm 1 ends by "removing the virtual valves that are never
actuated and implementing the remaining valves".  This module emits
that final design as structured data (JSON-compatible) and as a human
readable listing:

* every kept valve with its position, the roles it plays and its total
  wear over one assay execution;
* the dynamic devices with location/shape/orientation and lifetime —
  "the bioassay synthesis result, which specifies the device locations,
  shapes and orientations" (Section 2.3);
* the routing paths with their time steps;
* chip-level summary metrics.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.core.result import SynthesisResult


def design_dict(result: SynthesisResult, setting: int = 1) -> Dict[str, Any]:
    """The manufactured design as plain data (JSON-compatible)."""
    grid = result.grid_for(setting)
    valves: List[Dict[str, Any]] = []
    for valve in grid.actuated_valves():
        valves.append(
            {
                "x": valve.position.x,
                "y": valve.position.y,
                "roles": sorted(role.value for role in valve.roles_played),
                "pump_actuations": valve.peristaltic_actuations,
                "control_actuations": valve.transport_actuations,
                "total_actuations": valve.total_actuations,
            }
        )

    devices: List[Dict[str, Any]] = []
    for name, device in sorted(result.devices.items()):
        devices.append(
            {
                "operation": name,
                "x": device.rect.x,
                "y": device.rect.y,
                "width": device.rect.width,
                "height": device.rect.height,
                "type": device.device_type.name,
                "volume": device.volume,
                "storage_from": device.start,
                "mixing_from": device.mix_start,
                "dissolves_at": device.end,
            }
        )

    routes: List[Dict[str, Any]] = []
    for route in result.routes:
        routes.append(
            {
                "time": route.time,
                "source": route.event.source,
                "target": route.event.target,
                "source_is_port": route.event.source_is_port,
                "target_is_port": route.event.target_is_port,
                "cells": [[c.x, c.y] for c in route.cells],
            }
        )

    metrics = result.metrics
    return {
        "paper": "Tseng et al., DAC 2015 (10.1145/2744769.2744899)",
        "assay": result.graph.name,
        "grid": {
            "width": result.chip.spec.width,
            "height": result.chip.spec.height,
        },
        "ports": [
            {
                "name": p.name,
                "x": p.position.x,
                "y": p.position.y,
                "kind": p.kind.value,
            }
            for p in result.chip.ports.values()
        ],
        "setting": setting,
        "valves": valves,
        "devices": devices,
        "routes": routes,
        "summary": {
            "valve_count": metrics.used_valves,
            "max_total_actuations": grid.max_total_actuations,
            "max_peristaltic_actuations": grid.max_peristaltic_actuations,
            "role_changing_valves": metrics.role_changing_valves,
        },
    }


def design_json(result: SynthesisResult, setting: int = 1, indent: int = 2) -> str:
    """The design as a JSON document."""
    return json.dumps(design_dict(result, setting), indent=indent)


def design_listing(result: SynthesisResult, setting: int = 1) -> str:
    """Human-readable design listing (one valve per line)."""
    data = design_dict(result, setting)
    lines = [
        f"# design for assay {data['assay']!r} on "
        f"{data['grid']['width']}x{data['grid']['height']} grid "
        f"(setting {setting})",
        f"# {data['summary']['valve_count']} valves, max wear "
        f"{data['summary']['max_total_actuations']} "
        f"({data['summary']['max_peristaltic_actuations']} peristaltic)",
    ]
    for entry in data["valves"]:
        roles = ",".join(entry["roles"])
        lines.append(
            f"valve ({entry['x']:>2},{entry['y']:>2})  roles={roles:<18} "
            f"pump={entry['pump_actuations']:>4} "
            f"control={entry['control_actuations']:>3}"
        )
    for entry in data["devices"]:
        lines.append(
            f"device {entry['operation']:<12} {entry['type']:>3} at "
            f"({entry['x']},{entry['y']}) storage@{entry['storage_from']} "
            f"mix@{entry['mixing_from']} end@{entry['dissolves_at']}"
        )
    return "\n".join(lines) + "\n"
