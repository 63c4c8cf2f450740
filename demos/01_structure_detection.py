"""Detecting repeated row/column patterns.

Builds a block-causal attention-style mask and a planted instance, then
shows how the pattern indices summarize them: a handful of groups for the
weights, a few more once the masked target is folded in.
"""

import numpy as np

from wlra import (GenSpec, build_instance, detect_groups, generate,
                  generate_attention_mask, refine)

mask = generate_attention_mask(16, 4)
print("4x4-block causal mask on n=16:")
print(mask.astype(int))

rows = detect_groups(mask, "rows")
cols = detect_groups(mask, "cols")
print(f"\ndistinct mask rows: {rows.num_groups}, sizes {rows.sizes.tolist()}")
print(f"distinct mask cols: {cols.num_groups}, sizes {cols.sizes.tolist()}")
print(f"row group of each index: {rows.group_of.tolist()}")

# refine the mask rows by a target that varies inside each band
rng = np.random.default_rng(0)
cell = rng.standard_normal((8, 8))
target = np.repeat(np.repeat(cell, 2, axis=0), 2, axis=1)
refined = refine(rows, mask * target)
print(f"\nafter refining by the masked target: {refined.num_groups} groups")
print(f"refines the mask partition: {refined.refines(rows)}")

# the same machinery drives instance construction
inst = build_instance(target, mask)
print(f"\nbuild_instance detects r={inst.r}, p={inst.p} "
      f"(weight groups {inst.w_rows.num_groups}, masked groups {inst.wa_rows.num_groups})")

planted = build_instance(*generate(GenSpec(n=64, r=4, p=2, k_true=3, seed=7)))
print(f"planted (r=4, p=2) instance detected as r={planted.r}, p={planted.p}")
print(f"weight grid {planted.weights.shape}, masked-target grid {planted.targets.shape}")
