#!/usr/bin/env python3
"""Print the beam-domain structure of a scenario: per-cluster angular
supports, effective ranks, and the dimensions surviving each beam rule.
This is the tool the bundled default geometry was designed with."""

import argparse

import numpy as np

from iassr_sim.harness import build_geometry, build_plan
from iassr_sim.scenario import bundled_config_path, load_scenario


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=None)
    args = parser.parse_args()
    config, clusters = load_scenario(args.config or bundled_config_path())
    geometry = build_geometry(config, clusters)
    plan = build_plan(geometry, "iassr")
    plan_de = build_plan(geometry, "de")

    print(f"{'cluster':10s} {'area':9s} " + " | ".join(
        f"BS{b}: aod  dist  support      r" for b in range(3)))
    for ci, spec in enumerate(clusters):
        st = geometry.states[ci]
        cells = []
        for bs in range(3):
            idx = geometry.index_sets[(ci, bs)]
            lab = f"[{min(idx)},{max(idx)}]" if idx else "--"
            rank = geometry.bases[(ci, bs)].rank if (ci, bs) in geometry.bases else 0
            cells.append(f"{np.rad2deg(st.aod[bs]):6.1f} {st.distance[bs]:5.0f} "
                         f"{lab:9s} {rank:2d}")
        area = "edge" if st.home_bs is None else f"center_{st.home_bs}"
        print(f"{spec.id:10s} {area:9s} " + " | ".join(cells))

    print("\nservice dimensions:")
    for cid in plan.edge_ids():
        dims = tuple(plan.prebeams[(cid, bs)].rank for bs in range(3))
        streams = plan.edge_streams[cid]
        de_streams = len(plan_de.center_rows[cid])
        print(f"  {cid}: aligned beams {dims}, streams {streams} "
              f"(sum {sum(streams)}); single-BS service {de_streams} streams")
    for cid in plan.center_ids():
        m_ssr = plan.center_dim(cid)
        m_de = plan_de.center_dim(cid)
        print(f"  {cid}: soft-reuse beams {m_ssr} "
              f"(serving {len(plan.center_rows[cid])} streams); "
              f"full-exclusion beams {m_de}")
    ssr = [plan.center_dim(c) for c in plan.center_ids()]
    de = [plan_de.center_dim(c) for c in plan.center_ids()]
    print(f"\ncenter medians: soft-reuse {np.median(ssr)}, "
          f"full exclusion {np.median(de)}")


if __name__ == "__main__":
    main()
