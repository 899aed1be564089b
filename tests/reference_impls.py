"""Independent reference implementations used as test oracles.

Most of them are deliberately naive and written without reusing the
package's internals: plain loops, no vectorization, no shared helpers
beyond raw tuples, so agreement between the two code paths is meaningful.
The ``*_all_pairs`` oracles are instead earlier versions of package
kernels that a faster kernel must match bit for bit, kept as they were
but for the IoUs of their listed pairs, which come from
``geometry.overlap_ious`` (:func:`listed_pair_ious`).
:func:`interpolated_ap_per_row` is likewise the per-row AP integration
that ``metrics._interpolated_aps`` replaced, kept as it was.
"""

from __future__ import annotations

import numpy as np


def listed_pair_ious(rows: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """IoU of box row ``rows[first[k]]`` with ``rows[second[k]]`` for every
    k, by ``geometry.overlap_ious`` on their overlap widths and heights."""
    from densecrop.geometry import box_areas, overlap_ious

    a, b = rows[first], rows[second]
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    return overlap_ious(iw, ih, box_areas(a), box_areas(b))


def iou_ref(a: tuple, b: tuple) -> float:
    """IoU over (x1, y1, x2, y2) tuples."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def annotation_rows(annotations) -> tuple[np.ndarray, np.ndarray]:
    """``Annotation`` objects as the rows an ``ImageRecord`` holds: (N, 4)
    float64 box rows and (N,) int64 class ids."""
    return (
        np.array([a.box.as_tuple() for a in annotations], dtype=np.float64).reshape(-1, 4),
        np.array([a.class_id for a in annotations], dtype=np.int64),
    )


def detection_arrays(dets: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``Detection`` objects as the arrays a backend returns and
    ``nms_keep`` takes: (N, 4) float64 box rows, (N,) int64 class ids and
    (N,) float64 scores."""
    return (
        np.array([d.box.as_tuple() for d in dets], dtype=np.float64).reshape(-1, 4),
        np.array([d.class_id for d in dets], dtype=np.int64),
        np.array([d.score for d in dets], dtype=np.float64),
    )


def nms_ref(dets: list[tuple], thresh: float) -> list[int]:
    """Greedy NMS over (box_tuple, class_id, score); returns kept indices.

    Repeatedly takes the highest-scoring remaining detection (ties by
    input index) and discards remaining same-class detections overlapping
    it above the threshold.
    """
    remaining = list(range(len(dets)))
    kept: list[int] = []
    while remaining:
        best = min(remaining, key=lambda i: (-dets[i][2], i))
        kept.append(best)
        box, class_id, _ = dets[best]
        remaining = [
            i
            for i in remaining
            if i != best
            and not (dets[i][1] == class_id and iou_ref(dets[i][0], box) > thresh)
        ]
    return kept


def nms_keep_all_pairs(
    boxes: np.ndarray, classes: np.ndarray, scores: np.ndarray, iou_thresh: float, counts
) -> np.ndarray:
    """``geometry.nms_keep`` as it was when it scored every pair of rows of
    an (image, class) group: the same arguments and kept row indices."""
    from densecrop.errors import InvariantViolation
    from densecrop.geometry import group_pairs

    if not (0.0 < iou_thresh <= 1.0):
        raise InvariantViolation(f"iou_thresh outside (0, 1]: {iou_thresh}")
    image = np.repeat(np.arange(len(counts)), counts)
    visit = np.lexsort((-scores, image))
    # Rows by (image, class, visiting order): each group is one run, and a
    # row's rank is its place in its group's run.
    grouped = np.lexsort((-scores, classes, image))
    key_image, key_class = image[grouped], classes[grouped]
    new = np.ones(len(grouped), dtype=bool)
    new[1:] = (key_image[1:] != key_image[:-1]) | (key_class[1:] != key_class[:-1])
    starts = np.flatnonzero(new)
    sizes = np.diff(starts, append=len(grouped))
    group = np.repeat(np.arange(len(starts)), sizes)
    rank = np.arange(len(grouped)) - starts[group]
    first, second = group_pairs(sizes, group)
    later = second > first
    first, second = first[later], second[later]
    suppress = ~(listed_pair_ious(boxes, grouped[first], grouped[second]) <= iou_thresh)
    first, second = first[suppress], second[suppress]
    by_rank = np.argsort(rank[first], kind="stable")
    first, second = first[by_rank], second[by_rank]
    steps = np.flatnonzero(np.diff(rank[first])) + 1
    alive = np.ones(len(grouped), dtype=bool)
    # Every row ranked below this step's rows is settled, so a live row
    # here is kept and drops the later rows of its group it suppresses.
    for rows, suppressed in zip(np.split(first, steps), np.split(second, steps)):
        alive[suppressed[alive[rows]]] = False
    kept = np.empty(len(grouped), dtype=bool)
    kept[grouped] = alive
    return visit[kept[visit]]


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def scaled_boxes_ref(
    boxes: list[tuple], sigma: float, image_size: tuple
) -> list[tuple]:
    w, h = image_size
    return [
        (max(0.0, x1 - sigma), max(0.0, y1 - sigma), min(float(w), x2 + sigma), min(float(h), y2 + sigma))
        for (x1, y1, x2, y2) in boxes
    ]


def crop_components_ref(
    boxes: list[tuple],
    sigma: float,
    theta: float,
    image_size: tuple,
    min_cluster: int = 2,
) -> set:
    """Union-find clusters of the sigma-expanded, theta-thresholded graph.

    Returns a set of (member_indices_tuple, enclosing_box_tuple) for every
    component with at least ``min_cluster`` members.
    """
    scaled = scaled_boxes_ref(boxes, sigma, image_size)
    uf = UnionFind(len(scaled))
    for i in range(len(scaled)):
        for j in range(i + 1, len(scaled)):
            if iou_ref(scaled[i], scaled[j]) > theta:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(scaled)):
        groups.setdefault(uf.find(i), []).append(i)
    out = set()
    for members in groups.values():
        if len(members) < min_cluster:
            continue
        xs1 = min(scaled[i][0] for i in members)
        ys1 = min(scaled[i][1] for i in members)
        xs2 = max(scaled[i][2] for i in members)
        ys2 = max(scaled[i][3] for i in members)
        out.add((tuple(sorted(members)), (xs1, ys1, xs2, ys2)))
    return out


def merge_once_ref(boxes: list[tuple], theta: float) -> list[tuple[tuple, list[int]]]:
    """One merge pass in discovery order, as (enclosing_box_tuple, members).

    Repeatedly seed at the box with the most remaining connections (IoU
    strictly above ``theta``; ties go to the lowest index), absorb
    everything reachable from it, and remove the absorbed boxes from the
    graph. Boxes with no connections are not emitted.
    """
    n = len(boxes)
    conn = [[i != j and iou_ref(boxes[i], boxes[j]) > theta for j in range(n)] for i in range(n)]
    out = []
    while True:
        degrees = [sum(row) for row in conn]
        if not any(degrees):
            return out
        seed = degrees.index(max(degrees))
        seen, frontier = {seed}, [seed]
        while frontier:
            nxt = []
            for i in frontier:
                for j in range(n):
                    if conn[i][j] and j not in seen:
                        seen.add(j)
                        nxt.append(j)
            frontier = nxt
        members = sorted(seen)
        enclosing = (
            min(boxes[i][0] for i in members),
            min(boxes[i][1] for i in members),
            max(boxes[i][2] for i in members),
            max(boxes[i][3] for i in members),
        )
        out.append((enclosing, members))
        for i in members:
            for j in range(n):
                conn[i][j] = conn[j][i] = False


def label_density_crops_ref(
    boxes: list[tuple],
    image_size: tuple,
    sigma: float,
    theta: float,
    pi: float,
    merge_steps: int,
    min_cluster: int = 2,
) -> list[tuple]:
    """Density crops in emission order: expand by ``sigma``, then
    ``merge_steps`` rounds of :func:`merge_once_ref` with the first round's
    clusters kept from ``min_cluster`` members and later rounds' unmerged
    crops carried after the merged ones, each round dropping crops above
    ``pi`` of the image area; duplicates removed, first occurrence kept."""
    current = scaled_boxes_ref(boxes, sigma, image_size)
    max_area = pi * image_size[0] * image_size[1]
    for step in range(merge_steps):
        merged = merge_once_ref(current, theta)
        if step == 0:
            out = [box for box, members in merged if len(members) >= min_cluster]
        else:
            absorbed = {i for _, members in merged for i in members}
            out = [box for box, _ in merged]
            out += [b for i, b in enumerate(current) if i not in absorbed]
        current = [b for b in out if (b[2] - b[0]) * (b[3] - b[1]) <= max_area]
    unique: list[tuple] = []
    for b in current:
        if b not in unique:
            unique.append(b)
    return unique


def label_one(boxes, image_size, params) -> np.ndarray:
    """The crops of one image: ``label_density_crops`` of a stack of one."""
    from densecrop.croplab import label_density_crops

    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return label_density_crops(boxes, [image_size], params, [len(boxes)])[0]


def component_labels_plain(degree: np.ndarray, link_j: np.ndarray) -> np.ndarray:
    """``croplab._component_labels`` by plain label propagation, as
    ``merge_round`` ran it before pointer jumping: each pass a linked row
    takes the lowest label among itself and its neighbours, so a label
    travels one link a pass."""
    members = np.flatnonzero(degree)
    labels = np.arange(len(degree))
    if len(members):
        blocks = (np.cumsum(degree) - degree)[members]
        while True:
            lowest = np.minimum(labels[members], np.minimum.reduceat(labels[link_j], blocks))
            if (lowest == labels[members]).all():
                break
            labels[members] = lowest
    return labels


def merge_round_all_pairs(
    rows: np.ndarray,
    image_size,
    params,
    *,
    carry_unmerged: bool,
    counts,
) -> tuple[np.ndarray, np.ndarray]:
    """``croplab.merge_round`` as it was when it scored every pair of rows
    of an image: the same arguments, new rows and per-image row counts."""
    from densecrop.errors import InvariantViolation
    from densecrop.geometry import box_areas, group_pairs

    def _stack(boxes, image_size, counts):
        boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        sizes = np.asarray(image_size, dtype=np.float64).reshape(-1, 2)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        if len(sizes) != len(counts) or counts.sum() != len(boxes) or (counts < 0).any():
            raise InvariantViolation(
                f"{len(boxes)} rows do not split into counts {counts.tolist()} "
                f"over {len(sizes)} image sizes"
            )
        return boxes, sizes, counts

    rows, sizes, n = _stack(rows, image_size, counts)
    total = len(rows)
    image = np.repeat(np.arange(len(n)), n)
    local = np.arange(total) - (np.cumsum(n) - n)[image]
    per_row = n[image]
    # Every row pairs with each row of its own image, itself included, in
    # row order.
    pair_i, pair_j = group_pairs(n, image)
    linked = (listed_pair_ious(rows, pair_i, pair_j) > params.theta) & (pair_i != pair_j)
    link_i, link_j = pair_i[linked], pair_j[linked]
    degree = np.bincount(link_i, minlength=total)
    # A row's links are one block of link_j, since link_i is sorted.
    labels = component_labels_plain(degree, link_j)
    members = np.flatnonzero(degree)
    # Group each component's members, then reduce per component: its image,
    # member count, enclosing box and rank. Within an image, components go
    # by descending rank: the most-connected row first, ties to the lowest.
    members = members[np.argsort(labels[members], kind="stable")]
    group = np.flatnonzero(np.diff(labels[members], prepend=-1))
    crop_image = image[members[group]]
    size = np.diff(np.append(group, len(members)))
    rank = np.maximum.reduceat((degree * per_row - local)[members], group)
    lows = np.minimum.reduceat(rows[members, :2], group)
    crops = np.concatenate([lows, np.maximum.reduceat(rows[members, 2:], group)], axis=1)
    order = np.lexsort((-rank, crop_image))
    crops, crop_image, size = crops[order], crop_image[order], size[order]
    if carry_unmerged:
        # Each image's merged crops, then its unmerged rows in input order.
        alone = degree == 0
        out_image = np.concatenate([crop_image, image[alone]])
        order = np.argsort(out_image, kind="stable")
        out, out_image = np.concatenate([crops, rows[alone]])[order], out_image[order]
    else:
        kept = size >= params.min_cluster
        out, out_image = crops[kept], crop_image[kept]
    small = box_areas(out) <= (params.pi * sizes[:, 0] * sizes[:, 1])[out_image]
    return out[small], np.bincount(out_image[small], minlength=len(n))


def central_difference_gradient(fn, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, one entry at a time."""
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return grad


def ap_reference(
    gts: dict,
    dets: list[tuple],
    thresholds: list[float],
    area_range: tuple = (0.0, float("inf")),
) -> float | None:
    """Average precision for one class set, written the slow way.

    ``gts`` maps image id to a list of (box_tuple, class_id); ``dets`` is a
    list of (image_id, box_tuple, class_id, score). Ground truth outside
    the area range is ignored (matches to it do not count either way), and
    unmatched detections outside the range are dropped from the ranking.
    Returns the mean over classes present in the ground truth, or None if
    there is none to evaluate.
    """
    class_ids = sorted({c for anns in gts.values() for (_, c) in anns})
    lo, hi = area_range
    per_class: list[float] = []
    for class_id in class_ids:
        npig = 0
        image_rows: dict = {}
        for image_id in sorted(gts, key=str):
            anns = [(b, c) for (b, c) in gts[image_id] if c == class_id]
            flags = []
            for b, _ in anns:
                area = (b[2] - b[0]) * (b[3] - b[1])
                flags.append(not (lo <= area <= hi))
            order = sorted(range(len(anns)), key=lambda i: flags[i])
            image_rows[image_id] = ([anns[i][0] for i in order], [flags[i] for i in order])
            npig += sum(1 for f in flags if not f)
        if npig == 0:
            continue
        class_aps = []
        for t in thresholds:
            rows = []
            counter = 0
            for image_id in sorted(gts, key=str):
                boxes, ignored = image_rows[image_id]
                img_dets = [
                    (score, idx, box)
                    for idx, (iid, box, c, score) in enumerate(dets)
                    if iid == image_id and c == class_id
                ]
                img_dets.sort(key=lambda r: (-r[0], r[1]))
                taken = [False] * len(boxes)
                for score, _, dbox in img_dets:
                    best = -1
                    best_v = t
                    for g in range(len(boxes)):
                        if taken[g]:
                            continue
                        if best >= 0 and not ignored[best] and ignored[g]:
                            break
                        v = iou_ref(dbox, boxes[g])
                        if v < best_v:
                            continue
                        if best < 0 or v > best_v:
                            best, best_v = g, v
                    if best >= 0:
                        taken[best] = True
                        rows.append((score, counter, not ignored[best], ignored[best]))
                    else:
                        darea = (dbox[2] - dbox[0]) * (dbox[3] - dbox[1])
                        rows.append((score, counter, False, not (lo <= darea <= hi)))
                    counter += 1
            rows.sort(key=lambda r: (-r[0], r[1]))
            kept = [r for r in rows if not r[3]]
            if not kept:
                class_aps.append(0.0)
                continue
            tp = 0
            fp = 0
            pr: list[float] = []
            rc: list[float] = []
            for _, _, is_tp, _ in kept:
                tp += int(is_tp)
                fp += int(not is_tp)
                pr.append(tp / (tp + fp))
                rc.append(tp / npig)
            for i in range(len(pr) - 2, -1, -1):
                if pr[i] < pr[i + 1]:
                    pr[i] = pr[i + 1]
            total = 0.0
            for k in range(101):
                # The COCO recall grid, np.linspace(0, 1, 101), is k * 0.01;
                # k / 100 differs from it in the last bit at 10 of the points,
                # which a recall of exactly k / 100 tells apart.
                r = k * 0.01
                p = 0.0
                for i in range(len(rc)):
                    if rc[i] >= r:
                        p = pr[i]
                        break
                total += p
            class_aps.append(total / 101.0)
        per_class.append(sum(class_aps) / len(class_aps))
    if not per_class:
        return None
    return sum(per_class) / len(per_class)


def interpolated_ap_per_row(tps: np.ndarray, npig: int) -> float:
    """101-point interpolated AP of ranked true-positive flags (1 or 0)."""
    if tps.size == 0:
        return 0.0
    tps = tps.astype(np.float64)
    tp_cum = np.cumsum(tps)
    fp_cum = np.cumsum(1.0 - tps)
    recall = tp_cum / npig
    precision = np.maximum.accumulate((tp_cum / (tp_cum + fp_cum))[::-1])[::-1]
    indices = np.searchsorted(recall, np.linspace(0.0, 1.0, 101), side="left")
    q = np.zeros(101)
    valid = indices < len(precision)
    q[valid] = precision[indices[valid]]
    return float(np.mean(q))


def _greedy_match_ref(anns: list[tuple], img_dets: list[tuple], thresh: float) -> tuple[list, list]:
    """Score-ordered greedy matching within each class of one image.

    ``anns`` is a list of (box_tuple, class_id); ``img_dets`` a list of
    (image_id, box_tuple, class_id, score) in input order. Returns the
    detections as (score, input_index, box, class_id) rows in score order,
    each row's matched ground-truth index or -1, and the per-ground-truth
    taken flags.
    """
    rows = [(score, idx, box, c) for idx, (_, box, c, score) in enumerate(img_dets)]
    rows.sort(key=lambda r: (-r[0], r[1]))
    taken = [False] * len(anns)
    matches = []
    for _, _, dbox, c in rows:
        best, best_v = -1, thresh
        for g, (gbox, gc) in enumerate(anns):
            if gc != c or taken[g]:
                continue
            v = iou_ref(dbox, gbox)
            if v >= best_v and (best < 0 or v > best_v):
                best, best_v = g, v
        if best >= 0:
            taken[best] = True
        matches.append(best)
    return rows, matches, taken


def profile_errors_ref(
    gts: dict, dets: list[tuple], fg_iou: float = 0.5, bg_iou: float = 0.1
) -> tuple[dict, int, int]:
    """Error-type counts, true positives and false positives, the slow way.

    Same inputs as ``ap_reference``. Each unmatched detection gets the
    first type that applies: Cls (other-class IoU >= fg), Dupe (same-class
    IoU >= fg), Loc (same-class IoU > bg), Both (other-class IoU > bg),
    else Bkg; unmatched ground truth counts as Miss.
    """
    counts = {name: 0 for name in ("Cls", "Loc", "Both", "Dupe", "Bkg", "Miss")}
    tp = 0
    fp = 0
    for image_id in sorted(gts, key=str):
        anns = gts[image_id]
        img_dets = [d for d in dets if d[0] == image_id]
        rows, matches, taken = _greedy_match_ref(anns, img_dets, fg_iou)
        for (_, _, dbox, c), match in zip(rows, matches):
            if match >= 0:
                tp += 1
                continue
            fp += 1
            same = 0.0
            other = 0.0
            for gbox, gc in anns:
                v = iou_ref(dbox, gbox)
                if gc == c:
                    same = max(same, v)
                else:
                    other = max(other, v)
            if other >= fg_iou:
                counts["Cls"] += 1
            elif same >= fg_iou:
                counts["Dupe"] += 1
            elif same > bg_iou:
                counts["Loc"] += 1
            elif other > bg_iou:
                counts["Both"] += 1
            else:
                counts["Bkg"] += 1
        counts["Miss"] += sum(1 for flag in taken if not flag)
    return counts, tp, fp


def recall_by_size_ref(gts: dict, dets: list[tuple], iou_thresh: float = 0.5) -> dict:
    """Matched fraction of ground truth per COCO size bucket and overall."""
    buckets = {"small": (0.0, 32.0**2), "medium": (32.0**2, 96.0**2), "large": (96.0**2, float("inf"))}
    matched = {name: 0 for name in list(buckets) + ["all"]}
    totals = {name: 0 for name in list(buckets) + ["all"]}
    for image_id in sorted(gts, key=str):
        anns = gts[image_id]
        _, _, taken = _greedy_match_ref(anns, [d for d in dets if d[0] == image_id], iou_thresh)
        for (gbox, _), flag in zip(anns, taken):
            area = (gbox[2] - gbox[0]) * (gbox[3] - gbox[1])
            names = ["all"] + [n for n, (lo, hi) in buckets.items() if lo <= area <= hi]
            for name in names:
                totals[name] += 1
                matched[name] += int(flag)
    return {name: (matched[name] / totals[name] if totals[name] else None) for name in totals}


def match_per_image_ref(ious: np.ndarray, ignored: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Greedy matching of one image's detections for every (range,
    threshold), as evaluation ran it image by image before the dump was
    walked in chunks of pairs.

    ``ious`` is (D, G) with detections in descending score order and -inf
    for pairs that may never match (other class), ``ignored`` is (R, G) and
    ``thresholds`` is (T,). Returns the (R, T, D) matched ground-truth
    column, -1 where the detection stays unmatched. In score order a
    detection takes the untaken counted ground truth of highest IoU at or
    above the threshold, the first in annotation order among equal IoUs,
    and an ignored one only when no counted one qualifies. Detections no
    earlier one competes with are matched in one step, the others in a
    loop in score order.
    """

    def pick(candidates, ious, counted):
        preferred = candidates & counted
        candidates = np.where(preferred.any(axis=-1, keepdims=True), preferred, candidates)
        return np.where(candidates, ious, -1.0).argmax(axis=-1), candidates.any(axis=-1)

    num_dets, num_gts = ious.shape
    matched = np.full((len(ignored), len(thresholds), num_dets), -1, dtype=np.intp)
    if num_gts == 0:
        return matched
    above = ious[:, None, :] >= thresholds[:, None]  # (D, T, G)
    reach = above.any(axis=1)
    contested = np.zeros(num_dets, dtype=bool)
    contested[1:] = (reach[1:] & np.logical_or.accumulate(reach, axis=0)[:-1]).any(axis=1)
    counted = ~ignored[:, None, :]
    taken = np.zeros((len(ignored), len(thresholds), num_gts), dtype=bool)

    alone = np.flatnonzero(reach.any(axis=1) & ~contested)
    cols, found = pick(above[alone, None], ious[alone, None, None], counted)  # (n, R, T)
    n, r, t = np.nonzero(found)
    matched[r, t, alone[n]] = cols[n, r, t]
    taken[r, t, cols[n, r, t]] = True

    for d in np.flatnonzero(contested):
        cols, found = pick(above[d] & ~taken, ious[d], counted)  # (R, T)
        r, t = np.nonzero(found)
        matched[r, t, d] = cols[r, t]
        taken[r, t, cols[r, t]] = True
    return matched


# ---------------------------------------------------------------------------
# Toy detector: the per-proposal loops the array kernels replace
# ---------------------------------------------------------------------------

_MIN_SIDE = 1e-3


def _intersection_ref(a: tuple, b: tuple) -> float:
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    return iw * ih


def _area_ref(b: tuple) -> float:
    return (b[2] - b[0]) * (b[3] - b[1])


def extract_features_ref(
    scene, proposal: tuple, num_base_classes: int, payload_obs_scale: float = 4.0
) -> np.ndarray:
    """Feature vector of one (x1, y1, x2, y2) proposal in a one-scene stack,
    one scene object at a time. The payload noise generator is seeded
    through the package's ``rng_for``, which is what ties a feature row to
    its proposal."""
    from densecrop.seeding import rng_for

    x1, y1, x2, y2 = proposal
    w, h = x2 - x1, y2 - y1
    area = w * h
    ((width, height),) = scene.sizes.tolist()
    scene_area = width * height
    phi = np.zeros(8 + num_base_classes)
    phi[0] = np.log(max(area, _MIN_SIDE)) / np.log(scene_area)
    aspect = min(max(w / h, 1.0 / 8.0), 8.0)
    phi[1] = np.log(aspect) / np.log(8.0)
    phi[2] = (x1 + x2) / 2.0 / width
    phi[3] = (y1 + y2) / 2.0 / height

    best_iou = 0.0
    inter_total = 0.0
    centers_inside = 0
    covered_fracs: list[float] = []
    covered_areas: list[float] = []
    payload_sum = np.zeros(num_base_classes)
    weight_sum = 0.0
    for ob, obj_payload in zip(
        map(tuple, scene.object_boxes.tolist()), scene.object_payloads.tolist()
    ):
        inter = _intersection_ref(proposal, ob)
        if inter > 0.0:
            obj_area = _area_ref(ob)
            best_iou = max(best_iou, inter / (area + obj_area - inter))
            inter_total += inter
            frac = inter / obj_area
            covered_fracs.append(frac)
            covered_areas.append(obj_area)
            payload_sum += frac * np.asarray(obj_payload[:num_base_classes])
            weight_sum += frac
        ocx, ocy = (ob[0] + ob[2]) / 2.0, (ob[1] + ob[3]) / 2.0
        if x1 <= ocx < x2 and y1 <= ocy < y2:
            centers_inside += 1
    phi[4] = best_iou
    phi[5] = min(inter_total / area, 1.0)
    phi[6] = np.log1p(min(centers_inside, 32.0)) / np.log1p(32.0)
    phi[7] = float(np.mean(covered_fracs)) if covered_fracs else 0.0

    payload = payload_sum / max(weight_sum, 1.0)
    if payload_obs_scale > 0:
        ref_area = float(np.mean(covered_areas)) if covered_areas else area
        sigma = payload_obs_scale / np.sqrt(max(ref_area, 1.0))
        q = tuple(int(round(v * 16.0)) for v in proposal)
        noise_rng = rng_for(int(scene.seeds[0]), "payload-obs", *q)
        payload = payload + noise_rng.normal(0.0, sigma, num_base_classes)
    phi[8:] = payload
    return phi


def assign_targets_ref(
    proposals: list[tuple], annotations: list[tuple], fg_iou: float, background_class: int
) -> tuple[np.ndarray, np.ndarray]:
    """Best-IoU match of each proposal over (box_tuple, class_id)
    annotations by a strict ``>`` scan, so the first of equal IoUs wins."""
    classes = np.full(len(proposals), background_class, dtype=np.int64)
    offsets = np.zeros((len(proposals), 4))
    for i, prop in enumerate(proposals):
        best, best_iou = None, 0.0
        for box, class_id in annotations:
            inter = _intersection_ref(prop, box)
            if inter <= 0.0:
                continue
            v = inter / (_area_ref(prop) + _area_ref(box) - inter)
            if v > best_iou:
                best, best_iou = (box, class_id), v
        if best is not None and best_iou >= fg_iou:
            classes[i] = best[1]
            offsets[i] = np.array(best[0]) - np.array(prop)
    return classes, offsets


def safe_box_ref(x1: float, y1: float, x2: float, y2: float, width: float, height: float) -> tuple:
    """Clip to the image and pad degenerate sides to ``_MIN_SIDE``."""
    x1, x2 = min(max(x1, 0.0), width), min(max(x2, 0.0), width)
    y1, y2 = min(max(y1, 0.0), height), min(max(y2, 0.0), height)
    if x2 - x1 < _MIN_SIDE:
        c = min(max((x1 + x2) / 2.0, _MIN_SIDE / 2.0), width - _MIN_SIDE / 2.0)
        x1, x2 = c - _MIN_SIDE / 2.0, c + _MIN_SIDE / 2.0
    if y2 - y1 < _MIN_SIDE:
        c = min(max((y1 + y2) / 2.0, _MIN_SIDE / 2.0), height - _MIN_SIDE / 2.0)
        y1, y2 = c - _MIN_SIDE / 2.0, c + _MIN_SIDE / 2.0
    return (float(x1), float(y1), float(x2), float(y2))


def proposals_ref(backend, sample) -> list[tuple]:
    """The proposals of a one-scene stack ``sample`` as the detector built
    them before images were batched, in Python floats: its own
    ``rng_for(seed, "proposals", image id)`` jitters the object boxes and
    (except on crop children) the density crops of
    ``label_density_crops_ref``, then draws the background boxes' (w, h, x,
    y) uniforms row by row; every box is clipped by ``safe_box_ref``."""
    from densecrop.seeding import rng_for

    cfg, record = backend.config, sample.record
    params = backend._proposal_crop_params
    rng = rng_for(cfg.seed, "proposals", record.image_id)
    candidates = [tuple(row) for row in sample.object_boxes.tolist()]
    if not sample.crop[0]:
        candidates += label_density_crops_ref(
            candidates, record.size, params.sigma, params.theta, params.pi,
            params.merge_steps, params.min_cluster,
        )
    jitter = rng.normal(0.0, cfg.proposal_jitter, (len(candidates), 4)).tolist()
    raw = [tuple(c + j for c, j in zip(box, row)) for box, row in zip(candidates, jitter)]
    short = min(record.width, record.height)
    lo, hi = short / 24.0, short / 3.0
    for uw, uh, ux, uy in rng.random((cfg.background_proposals, 4)).tolist():
        w, h = lo + (hi - lo) * uw, lo + (hi - lo) * uh
        x = 0.0 + (max(record.width - w, _MIN_SIDE) - 0.0) * ux
        y = 0.0 + (max(record.height - h, _MIN_SIDE) - 0.0) * uy
        raw.append((x, y, x + w, y + h))
    return [safe_box_ref(*box, record.width, record.height) for box in raw]


def decode_ref(
    proposals: list[tuple],
    probs: np.ndarray,
    offsets: np.ndarray,
    image_size: tuple,
    emit_floor: float,
    emitting_classes: int,
) -> list[tuple]:
    """(box_tuple, class_id, score) detections, proposal by proposal and
    class by class: every class below ``emitting_classes`` scoring above
    ``emit_floor`` on the proposal's regressed, clipped box."""
    out = []
    for i, prop in enumerate(proposals):
        box = safe_box_ref(
            prop[0] + offsets[i, 0], prop[1] + offsets[i, 1],
            prop[2] + offsets[i, 2], prop[3] + offsets[i, 3],
            *image_size,
        )
        for class_id in range(emitting_classes):
            score = float(probs[i, class_id])
            if score > emit_floor:
                out.append((box, class_id, score))
    return out


def assign_targets_per_view(
    boxes: np.ndarray,
    gt_boxes: np.ndarray,
    gt_classes: np.ndarray,
    fg_iou: float,
    background_class: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Target assignment within one view, as the detector ran it before
    views were stacked: one (N, M) ``iou_matrix`` and a row ``argmax``,
    so the first of equal best IoUs wins. Returns classes and corner
    offsets (match minus proposal, zero for background)."""
    from densecrop.geometry import iou_matrix

    classes = np.full(len(boxes), background_class, dtype=np.int64)
    offsets = np.zeros((len(boxes), 4))
    if len(boxes) == 0 or len(gt_boxes) == 0:
        return classes, offsets
    ious = iou_matrix(boxes, gt_boxes)
    best = ious.argmax(axis=1)
    best_iou = ious[np.arange(len(boxes)), best]
    fg = (best_iou > 0.0) & (best_iou >= fg_iou)
    classes[fg] = gt_classes[best[fg]]
    offsets[fg] = gt_boxes[best[fg]] - boxes[fg]
    return classes, offsets


def decode_per_view(backend, weights, view, augmentation: str, seed: int):
    """One view's decode as the detector ran it before views were
    stacked: the view augmented alone with ``rng_for(seed,
    augmentation)``, one ``toy_forward`` over its rows and each regressed
    box clipped by ``safe_box_ref`` against the view's scalar image size.
    Returns (N, 4) boxes and (N, num_outputs) probabilities."""
    from densecrop.detect import toy_forward
    from densecrop.seeding import rng_for

    phi = backend.augment(view.phi, augmentation, [rng_for(seed, augmentation)], view.counts)
    probs, offsets = toy_forward(weights, phi, view.counts)
    boxes = [
        safe_box_ref(*(np.array(prop) + offsets[i]), *view.sizes[0].tolist())
        for i, prop in enumerate(view.proposals.tolist())
    ]
    return np.array(boxes, dtype=np.float64).reshape(-1, 4), probs


def supervised_batch_ref(backend, views, annotations, seeds):
    """The labeled half of a training iteration one view at a time, as
    training ran it before labeled views were stacked: each view weakly
    augmented alone with ``rng_for(seed, "weak")`` and its proposals
    matched by ``assign_targets_per_view`` against its record's
    ``Annotation`` objects, ``annotations[k]`` for view ``k``. Returns the
    features, classes and offsets concatenated
    in view order."""
    from densecrop.seeding import rng_for

    features, classes, offsets = [], [], []
    for view, anns, seed in zip(views, annotations, seeds):
        gt_boxes = np.array([a.box.as_tuple() for a in anns], dtype=np.float64).reshape(-1, 4)
        gt_classes = np.array([a.class_id for a in anns], dtype=np.int64)
        features.append(backend.augment(view.phi, "weak", [rng_for(seed, "weak")], view.counts))
        c, o = assign_targets_per_view(
            view.proposals, gt_boxes, gt_classes, backend.config.fg_iou, backend.background_class
        )
        classes.append(c)
        offsets.append(o)
    return np.concatenate(features), np.concatenate(classes), np.concatenate(offsets)


def student_batch_ref(backend, teacher, views, tau, weak_seeds, strong_seeds):
    """The unlabeled half of a training iteration one view at a time, as
    training ran it before views were stacked.

    Per view: the teacher's weak view is flipped when
    ``rng_for(weak_seed, "weak").random()`` falls below the flip
    probability and decoded by ``toy_forward`` alone; emitted detections
    scoring above ``tau`` become pseudo-labels; the strong view draws its
    noise block and cutout start from ``rng_for(strong_seed, "strong")``;
    ``assign_targets_per_view`` matches the view's proposals to its own
    pseudo-labels, and matched or confidently-background rows are kept.
    Returns the kept features and classes, concatenated in view order,
    and the number of pseudo-labels.
    """
    from densecrop.detect import BG_TAU, EMIT_FLOOR, toy_forward
    from densecrop.seeding import rng_for

    cfg = backend.config
    bg = backend.background_class
    features, classes, total = [], [], 0
    for view, weak_seed, strong_seed in zip(views, weak_seeds, strong_seeds):
        weak = view.phi.copy()
        if len(weak) and rng_for(weak_seed, "weak").random() < cfg.weak_flip_prob:
            weak[:, 2] = 1.0 - weak[:, 2]
        probs, offsets = toy_forward(teacher, weak, view.counts)
        width, height = view.sizes[0].tolist()
        pseudo_boxes, pseudo_classes = [], []
        for i, prop in enumerate(view.proposals.tolist()):
            box = safe_box_ref(*(np.array(prop) + offsets[i]), width, height)
            for class_id in range(bg):
                score = probs[i, class_id]
                if score > EMIT_FLOOR and score > tau:
                    pseudo_boxes.append(box)
                    pseudo_classes.append(class_id)
        total += len(pseudo_classes)
        strong = view.phi
        if len(strong):
            rng = rng_for(strong_seed, "strong")
            strong = strong + rng.normal(0.0, cfg.strong_noise_std, strong.shape)
            if cfg.strong_cutout > 0:
                start = int(rng.integers(0, strong.shape[1]))
                strong[:, start : start + cfg.strong_cutout] = 0.0
        targets, _ = assign_targets_per_view(
            view.proposals,
            np.array(pseudo_boxes, dtype=np.float64).reshape(-1, 4),
            np.array(pseudo_classes, dtype=np.int64),
            cfg.fg_iou,
            bg,
        )
        kept = (targets != bg) | (probs[:, bg] > BG_TAU)
        features.append(strong[kept])
        classes.append(targets[kept])
    return np.concatenate(features), np.concatenate(classes), total


def scene_of(record, seed: int = 0, objects=(), payload_width: int = 0, crop: bool = False):
    """A one-scene ``SceneStack`` of a record's id, size and annotation
    rows, the seed word ``stable_int(seed)`` and (box tuple, class id,
    payload) objects; a scene without objects has ``payload_width``
    payload columns."""
    from densecrop.dataset import SceneStack
    from densecrop.seeding import stable_int

    payloads = [payload for _, _, payload in objects]
    return SceneStack(
        image_ids=(record.image_id,),
        sizes=np.array([record.size], dtype=np.float64),
        seeds=np.array([stable_int(seed)], dtype=np.int64),
        id_words=np.array([stable_int(record.image_id)], dtype=np.int64),
        crop=np.array([crop]),
        boxes=record.boxes,
        classes=record.classes,
        counts=np.array([len(record.classes)], dtype=np.int64),
        object_boxes=np.array([box for box, _, _ in objects], dtype=np.float64).reshape(-1, 4),
        object_classes=np.array([c for _, c, _ in objects], dtype=np.int64),
        object_payloads=np.array(payloads, dtype=np.float64).reshape(
            len(objects), len(payloads[0]) if objects else payload_width
        ),
        object_counts=np.array([len(objects)], dtype=np.int64),
    )


def with_record(scene, **changes):
    """A one-scene stack with fields of its record changed (its image id,
    size or annotation rows), and its id word and count to match."""
    from dataclasses import replace

    from densecrop.seeding import stable_int

    record = replace(scene.record, **changes)
    return replace(
        scene,
        image_ids=(record.image_id,),
        sizes=np.array([record.size], dtype=np.float64),
        id_words=np.array([stable_int(record.image_id)], dtype=np.int64),
        boxes=record.boxes,
        classes=record.classes,
        counts=np.array([len(record.classes)], dtype=np.int64),
    )


def scene_objects(scene) -> list[tuple]:
    """A one-scene stack's objects as (box tuple, class id, payload) rows."""
    return list(zip(
        map(tuple, scene.object_boxes.tolist()),
        scene.object_classes.tolist(),
        scene.object_payloads.tolist(),
    ))


def crop_children_ref(parents: list, crops: list, policy) -> list:
    """Crop children one crop and one box at a time, in Python floats:
    ``crops[i]`` holds the (x1, y1, x2, y2) crop rows of ``parents[i]``,
    and child ``k`` of that group is ``{parent id}:crop{k}``.

    An annotation stays when at least half its area lies inside the crop;
    it is shifted by the crop origin, divided by (crop side / output side)
    and clipped as ``min(max(v, 0.0), side)``. An object is shifted,
    clipped to the crop the same way, kept while it has area, and
    multiplied by (output side / crop side). Every kept box is a ``Box``.
    Parents and children are one-scene stacks.
    """
    from densecrop.dataset import Annotation, ImageRecord
    from densecrop.geometry import Box
    from densecrop.seeding import stable_int

    children = []
    for parent, rows in zip(parents, crops):
        record = parent.record
        for k, row in enumerate(np.asarray(rows, dtype=np.float64).reshape(-1, 4).tolist()):
            crop = Box(*row)
            out_w, out_h = output_size_ref(policy, crop)
            sw, sh = (crop.x2 - crop.x1) / out_w, (crop.y2 - crop.y1) / out_h
            anns = []
            for ann in record.annotations:
                b = ann.box.as_tuple()
                if _intersection_ref(b, crop.as_tuple()) < 0.5 * _area_ref(b):
                    continue
                x1 = min(max((b[0] - crop.x1) / sw, 0.0), out_w)
                y1 = min(max((b[1] - crop.y1) / sh, 0.0), out_h)
                x2 = min(max((b[2] - crop.x1) / sw, 0.0), out_w)
                y2 = min(max((b[3] - crop.y1) / sh, 0.0), out_h)
                if x1 < x2 and y1 < y2:
                    anns.append(Annotation(box=Box(x1, y1, x2, y2), class_id=ann.class_id))
            objects = []
            for b, class_id, payload in scene_objects(parent):
                x1 = min(max(b[0] - crop.x1, 0.0), crop.width)
                y1 = min(max(b[1] - crop.y1, 0.0), crop.height)
                x2 = min(max(b[2] - crop.x1, 0.0), crop.width)
                y2 = min(max(b[3] - crop.y1, 0.0), crop.height)
                if x1 < x2 and y1 < y2:
                    sx, sy = out_w / crop.width, out_h / crop.height
                    box = Box(x1 * sx, y1 * sy, x2 * sx, y2 * sy)
                    objects.append((box.as_tuple(), class_id, payload))
            child = ImageRecord(f"{record.image_id}:crop{k}", out_w, out_h, *annotation_rows(anns))
            seed = int(parent.seeds[0]) ^ stable_int(repr(crop.as_tuple()))
            width = parent.object_payloads.shape[1]
            children.append(scene_of(child, seed, objects, width, crop=True))
    return children


def output_size_ref(policy, crop) -> tuple[float, float]:
    """The upscaled (width, height) of a crop ``Box`` under an
    ``UpscalePolicy``, one crop at a time in Python floats."""
    if policy.mode == "factor":
        s = policy.factor
    else:
        s = max(1.0, policy.target / min(crop.width, crop.height))
    return (crop.width * s, crop.height * s)


def make_crop_children_per_child(parents: list, crops: list, policy) -> list:
    """Crop children as the package built them before the zoom returned a
    stack: every (crop, row) pair projected in one pass, then one
    ``ImageRecord`` and one scene, here a one-scene stack, per child, each
    child's seed ``stable_int(parent seed) ^ stable_int(repr(crop))`` from
    its crop ``Box``. Parents are one-scene stacks."""
    from densecrop.dataset import MIN_CLIPPED_AREA_FRACTION, ImageRecord
    from densecrop.geometry import (
        Box, box_areas, clip, group_pairs, intersection_matrix, project_rows,
    )
    from densecrop.seeding import stable_int

    groups = [np.asarray(rows, dtype=np.float64).reshape(-1, 4) for rows in crops]
    owner = np.repeat(np.arange(len(groups)), [len(rows) for rows in groups])
    rows = np.concatenate(groups or [np.zeros((0, 4))])
    crop_boxes = [Box(*row) for row in rows.tolist()]
    out_sizes = [output_size_ref(policy, crop) for crop in crop_boxes]
    out = np.array(out_sizes, dtype=np.float64).reshape(-1, 2)
    records = [p.record for p in parents]

    counts = np.array([len(record.classes) for record in records], dtype=np.int64)
    pair_crop, pair_ann = group_pairs(counts, owner)
    ann_rows = np.concatenate([record.boxes for record in records] or [np.zeros((0, 4))])[pair_ann]
    ann_classes = np.concatenate([record.classes for record in records] or [np.zeros(0, np.int64)])
    crop_rows, size = rows[pair_crop], out[pair_crop]
    inside = intersection_matrix(ann_rows, crop_rows[:, None])[:, 0] >= (
        MIN_CLIPPED_AREA_FRACTION * box_areas(ann_rows)
    )
    mapped = clip(project_rows(ann_rows, crop_rows, size), 0.0, np.tile(size, 2))
    kept = inside & (mapped[:, 0] < mapped[:, 2]) & (mapped[:, 1] < mapped[:, 3])
    child_boxes, child_classes = mapped[kept], ann_classes[pair_ann[kept]]
    ann_at = [0, *np.cumsum(np.bincount(pair_crop[kept], minlength=len(rows))).tolist()]

    counts = np.array([len(p.object_boxes) for p in parents], dtype=np.int64)
    pair_crop, pair_obj = group_pairs(counts, owner)
    objects = np.concatenate([p.object_boxes for p in parents] or [np.zeros((0, 4))])
    crop_rows = rows[pair_crop]
    extent = crop_rows[:, 2:] - crop_rows[:, :2]
    clipped = clip(objects[pair_obj] - np.tile(crop_rows[:, :2], 2), 0.0, np.tile(extent, 2))
    visible = (clipped[:, 0] < clipped[:, 2]) & (clipped[:, 1] < clipped[:, 3])
    scaled = clipped * np.tile(out[pair_crop] / extent, 2)
    obj_at = np.cumsum(counts[owner])[:-1]

    children = []
    first = np.searchsorted(owner, owner).tolist()
    per_crop = zip(owner.tolist(), crop_boxes, out_sizes, np.split(scaled, obj_at))
    for k, ((i, crop, size, boxes), seen) in enumerate(zip(per_crop, np.split(visible, obj_at))):
        record, parent = records[i], parents[i]
        child = ImageRecord(
            image_id=f"{record.image_id}:crop{k - first[k]}",
            width=size[0],
            height=size[1],
            boxes=child_boxes[ann_at[k] : ann_at[k + 1]],
            classes=child_classes[ann_at[k] : ann_at[k + 1]],
        )
        objects = zip(
            map(tuple, boxes[seen].tolist()),
            parent.object_classes[seen].tolist(),
            parent.object_payloads[seen].tolist(),
        )
        seed = int(parent.seeds[0]) ^ stable_int(repr(crop.as_tuple()))
        children.append(scene_of(child, seed, list(objects), parent.object_payloads.shape[1], crop=True))
    return children


# ---------------------------------------------------------------------------
# Plumbing: samples as the scene stacks the package's kernels take
# ---------------------------------------------------------------------------


def stacked_rows(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-image (K_i, 4) row blocks as one stack of rows and its counts,
    the form the package's stack kernels take."""
    blocks = [np.asarray(b, dtype=np.float64).reshape(-1, 4) for b in blocks]
    rows = np.concatenate(blocks or [np.zeros((0, 4))])
    return rows, np.array([len(b) for b in blocks], dtype=np.int64)


def split_rows(counts, *columns) -> list:
    """Each image's block of every column of a ragged stack of rows with
    ``counts[i]`` rows in image ``i``: a list of arrays for one column, of
    tuples for several."""
    ends = np.cumsum(counts, dtype=np.int64).tolist()
    blocks = [[column[a:b] for a, b in zip([0] + ends, ends)] for column in columns]
    return blocks[0] if len(blocks) == 1 else list(zip(*blocks))


def split_detections(detections) -> list:
    """Each scene's (boxes, classes, scores) triple of a ``detect_batch``
    or ``oracle_detect`` result."""
    *columns, counts = detections
    return split_rows(counts, *columns)


def one_scene(detections) -> tuple:
    """The (boxes, classes, scores) of a detection result over one scene."""
    (triple,) = split_detections(detections)
    return triple


def stack_of(samples):
    """A ``SceneStack`` of a list of stacks, such as one-scene stacks."""
    from densecrop.dataset import SceneStack

    return SceneStack.of(list(samples))


def record_stack(*records):
    """A ``SceneStack`` of records, each with a scene without objects."""
    return stack_of(scene_of(r) for r in records)


def zoomed_samples(parents, crops: list, children) -> list:
    """The children that ``make_crop_children`` zoomed from the stack
    ``parents`` and ``crops`` as one-scene stacks, each checked against the
    parent and crop row it came from: named ``{parent id}:crop{k}``, seeded
    ``parent seed ^ stable_int(repr(crop))`` and flagged a crop child."""
    from densecrop.seeding import stable_int

    groups = [np.asarray(r, dtype=np.float64).reshape(-1, 4) for r in crops]
    owner = np.repeat(np.arange(len(groups)), [len(r) for r in groups])
    rows = np.concatenate(groups or [np.zeros((0, 4))]).tolist()
    first = np.searchsorted(owner, owner).tolist()
    samples = list(children)
    assert len(samples) == len(rows)
    for k, (child, i) in enumerate(zip(samples, owner.tolist())):
        assert child.image_ids == (f"{parents.image_ids[i]}:crop{k - first[k]}",)
        assert child.seeds.tolist() == [int(parents.seeds[i]) ^ stable_int(repr(tuple(rows[k])))]
        assert child.crop.tolist() == [True]
    return samples


def child_samples(parents: list, crops: list, policy) -> list:
    """The one-scene children of ``make_crop_children`` on the stack of
    ``parents``, checked by ``zoomed_samples``."""
    from densecrop.dataset import make_crop_children

    stack = stack_of(parents)
    return zoomed_samples(stack, crops, make_crop_children(stack, *stacked_rows(crops), policy))


def meeting_case_stack(rng, images: int, crowded: int = 0) -> list:
    """Random images for a ragged stack as (boxes, (width, height)) pairs,
    with the cases a search for the boxes that meet can get wrong: boxes
    that touch (overlap width or height exactly 0), nested, identical and
    image-clipped boxes, images of no row and of one row, and images whose
    coordinates lie near 1e6. With ``crowded`` set, one image holds that
    many boxes. Coordinates are multiples of 0.25, so sums and touches are
    exact."""
    lengths = [int(rng.choice([0, 1, int(rng.integers(2, 60))])) for _ in range(images)]
    if crowded:
        lengths[int(rng.integers(0, images))] = crowded
    out = []
    for n in lengths:
        side = 3000.0 if n > 200 else float(rng.integers(80, 400))
        origin = 1e6 if rng.random() < 0.25 else 0.0
        boxes = np.zeros((n, 4))
        for i in range(n):
            kind = int(rng.integers(0, 7)) if i else 0
            other = boxes[int(rng.integers(0, i))] if i else None
            if kind == 1:  # identical
                box = other.copy()
            elif kind == 2:  # nested
                inset = np.minimum(other[2:] - other[:2], 4.0) / 4.0
                box = np.concatenate([other[:2] + inset, other[2:] - inset])
            elif kind in (3, 4):  # touching on the right or bottom
                axis = kind - 3
                box = other.copy()
                extent = float(rng.integers(1, 30))
                box[axis], box[axis + 2] = other[axis + 2], other[axis + 2] + extent
            else:  # random; kind 5 runs past the image and is clipped
                corner = rng.integers(-80 if kind == 5 else 0, 4 * int(side) - 40, 2) / 4.0
                extent = rng.integers(4, 160, 2) / 4.0
                box = np.concatenate([corner, corner + extent])
            boxes[i] = np.clip(box, 0.0, side)
        # a clipped box can have collapsed onto the image edge
        boxes = boxes[(boxes[:, 0] < boxes[:, 2]) & (boxes[:, 1] < boxes[:, 3])]
        out.append((boxes + origin, (origin + side, origin + side)))
    return out


def _place_object_ref(rng, cx: float, cy: float, size_range: tuple, class_id: int, config) -> tuple:
    w = float(rng.uniform(*size_range))
    h = float(rng.uniform(*size_range))
    # Shift the center so the box always fits inside the scene.
    cx = min(max(cx, w / 2.0), config.width - w / 2.0)
    cy = min(max(cy, h / 2.0), config.height - h / 2.0)
    payload = np.zeros(config.num_classes)
    payload[class_id] = 1.0
    payload = payload + rng.normal(0.0, config.payload_noise, config.num_classes)
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0), class_id, payload


def synthetic_dataset_ref(config):
    """``generate_synthetic_dataset`` as one generator's calls per scene
    and several per object, which the stream decoder replaced; kept as it
    was but for its return value: one ``SceneStack`` of one-scene stacks,
    in place of a record and a scene per image."""
    from densecrop.dataset import ImageRecord
    from densecrop.seeding import rng_for, stable_int

    samples = []
    for i in range(config.num_images):
        rng = rng_for(config.seed, "scene", i)
        objects = []
        n_clusters = int(rng.integers(config.clusters_per_image[0], config.clusters_per_image[1] + 1))
        margin = 3.0 * config.cluster_spread
        for _ in range(n_clusters):
            ccx = float(rng.uniform(min(margin, config.width / 2), max(config.width - margin, config.width / 2)))
            ccy = float(rng.uniform(min(margin, config.height / 2), max(config.height - margin, config.height / 2)))
            count = int(rng.integers(config.objects_per_cluster[0], config.objects_per_cluster[1] + 1))
            for _ in range(count):
                ox = ccx + float(rng.normal(0.0, config.cluster_spread))
                oy = ccy + float(rng.normal(0.0, config.cluster_spread))
                class_id = int(rng.integers(0, config.num_classes))
                objects.append(_place_object_ref(rng, ox, oy, config.small_size, class_id, config))
        n_scattered = int(rng.integers(config.scattered_per_image[0], config.scattered_per_image[1] + 1))
        for _ in range(n_scattered):
            ox = float(rng.uniform(0.0, config.width))
            oy = float(rng.uniform(0.0, config.height))
            class_id = int(rng.integers(0, config.num_classes))
            objects.append(_place_object_ref(rng, ox, oy, config.large_size, class_id, config))
        boxes = np.array([box for box, _, _ in objects], dtype=np.float64).reshape(-1, 4)
        classes = np.array([c for _, c, _ in objects], dtype=np.int64)
        record = ImageRecord(i + 1, config.width, config.height, boxes, classes)
        seed = stable_int(config.seed) ^ stable_int(i * 2654435761)
        samples.append(scene_of(record, seed, objects, config.num_classes))
    return stack_of(samples)
