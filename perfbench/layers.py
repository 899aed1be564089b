"""Per-layer metrics derived from one traced run.

A traced run has three phases: ``setup`` (once), ``measure`` (the traced
measured units) and ``post`` (the closing quality check). Every figure
here covers the setup, the post step and one measured unit: sums from the
measure phase are divided by the number of traced units, so the figures
describe a fixed amount of work and compare across commits even when a
faster commit fits more units into the same run length.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from tracer import LAYERS

def probes() -> dict:
    """Probes that look at arguments and results to count useful work."""

    def filter_pseudo(tr, args, result, parent):
        tr.add("pseudo_in", len(args[0]))
        tr.add("pseudo_out", len(result))

    def proposals(tr, args, result, parent):
        if parent == "detect.ToyDetector.unsupervised_batch":
            tr.add("unsup_proposals", len(result))

    def unsup_batch(tr, args, result, parent):
        tr.add("unsup_kept", len(result.classes))

    def label_crops(tr, args, result, parent):
        tr.add("croplab_boxes", len(args[0]))

    def nms(tr, args, result, parent):
        tr.add("nms_in", len(args[0]))
        tr.add("nms_out", len(result))

    def select_crops(tr, args, result, parent):
        tr.add("crops_selected", len(result))

    return {
        "teacher.filter_pseudo_labels": filter_pseudo,
        "detect.ToyDetector.proposals": proposals,
        "detect.ToyDetector.unsupervised_batch": unsup_batch,
        "croplab.label_density_crops": label_crops,
        "geometry.nms": nms,
        "infer.select_crops": select_crops,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Combined:
    """Sums over the phases, the measure phase weighted by 1 / units."""

    def __init__(self, tracer, measured_units: int):
        self.weight = {"setup": 1.0, "measure": 1.0 / max(measured_units, 1), "post": 1.0}
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.site_calls: Counter = Counter()
        self.sums: Counter = Counter()
        for (phase, key), (calls, total, self_s) in tracer.stats.items():
            w = self.weight[phase]
            self.calls[key] += w * calls
            self.total[key] += w * total
            self.self_time[key] += w * self_s
        for (phase, key, site), calls in tracer.site_calls.items():
            w = self.weight[phase]
            self.site_calls[(key, site)] += w * calls
            if key not in self.total:
                self.calls[key] += w * calls
        for (phase, name), value in tracer.probe_sums.items():
            self.sums[name] += self.weight[phase] * value
        self._timeline(tracer.timeline)

    def _timeline(self, events) -> None:
        by_phase = defaultdict(list)
        for phase, key, start, end, arg in events:
            by_phase[phase].append((start, end, key, arg))
        for phase, rows in by_phase.items():
            w = self.weight[phase]
            rows.sort(key=lambda r: r[0])
            for index, (start, end, key, config) in enumerate(rows):
                if key not in ("teacher.train", "infer.detect_multistage"):
                    continue
                inside = []
                j = index + 1
                while j < len(rows) and rows[j][0] <= end:
                    inside.append(rows[j])
                    j += 1
                if key == "teacher.train":
                    self._iterations(w, config, inside)
                else:
                    picked = [r[1] for r in inside if r[2] == "infer.select_crops"]
                    fused = [r[0] for r in inside if r[2] == "geometry.nms"]
                    if picked and fused:
                        self.sums["stage2_s"] += w * (fused[-1] - picked[0])

    def _iterations(self, w, config, inside) -> None:
        """Split one ``train`` call into burn-in, ssod-only and crop-phase
        iterations; after burn-in, ``ema_update`` marks iteration ends."""
        burn = [r for r in inside if r[2] == "teacher.burn_in"]
        if burn:
            self.sums["burn_in_s"] += w * (burn[0][1] - burn[0][0])
            self.sums["burn_in_iters"] += w * config.burn_in_iters
        marks = [burn[0][1]] if burn else []
        marks += [r[1] for r in inside if r[2] == "teacher.ema_update"]
        for index in range(1, len(marks)):
            iteration = config.burn_in_iters + index
            phase = "crop" if iteration >= config.crop_start_iter else "ssod"
            self.sums[f"{phase}_s"] += w * (marks[index] - marks[index - 1])
            self.sums[f"{phase}_iters"] += w

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_time.items() if k.split(".")[0] == layer)


def per_layer_metrics(c: Combined, quality: dict, overhead: dict) -> dict:
    """Name -> (value, unit) for every per-layer metric."""
    s = c.sums
    out = {
        "teacher.burn_in_ms_per_iter": (1e3 * _ratio(s["burn_in_s"], s["burn_in_iters"]), "ms"),
        "teacher.ssod_ms_per_iter": (1e3 * _ratio(s["ssod_s"], s["ssod_iters"]), "ms"),
        "teacher.crop_ms_per_iter": (1e3 * _ratio(s["crop_s"], s["crop_iters"]), "ms"),
        "teacher.discover_s": (c.total["teacher.discover_unlabeled_crops"], "s"),
        "teacher.pseudo_keep_ratio": (_ratio(s["pseudo_out"], s["pseudo_in"]), "ratio"),
        "teacher.unlabeled_views": (c.site_calls[("detect.ToyDetector.unsupervised_batch", "ToyDetector")], "count"),
        "detect.features_s": (c.total["detect.ToyDetector.features"], "s"),
        "detect.features_calls": (c.calls["detect.ToyDetector.features"], "count"),
        "detect.proposals_s": (c.total["detect.ToyDetector.proposals"], "s"),
        "detect.proposals_calls": (c.calls["detect.ToyDetector.proposals"], "count"),
        "detect.assign_targets_s": (c.total["detect.assign_targets"], "s"),
        "detect.forward_s": (c.total["detect.toy_forward"], "s"),
        "detect.loss_s": (c.total["detect.loss_sup"] + c.total["detect.loss_unsup"], "s"),
        "detect.unsup_keep_ratio": (_ratio(s["unsup_kept"], s["unsup_proposals"]), "ratio"),
        "detect.extract_features_calls": (c.calls["detect.extract_features"], "count"),
        "seeding.rng_for_calls": (c.calls["seeding.rng_for"], "count"),
        "croplab.label_s": (c.total["croplab.label_density_crops"], "s"),
        "croplab.calls": (c.calls["croplab.label_density_crops"], "count"),
        "croplab.boxes_per_call": (_ratio(s["croplab_boxes"], c.calls["croplab.label_density_crops"]), "count"),
        "geometry.nms_s": (c.total["geometry.nms"], "s"),
        "geometry.nms_keep_ratio": (_ratio(s["nms_out"], s["nms_in"]), "ratio"),
        "geometry.reproject_calls": (c.calls["geometry.reproject"], "count"),
        "geometry.box_inits": (c.calls["geometry.Box.__post_init__"], "count"),
        "dataset.crop_children_s": (c.total["dataset.make_crop_children"] + c.total["dataset.crop_scene"], "s"),
        "dataset.generate_s": (c.total["dataset.generate_synthetic_dataset"], "s"),
        "infer.stage2_s": (s["stage2_s"], "s"),
        "infer.crops_per_image": (_ratio(s["crops_selected"], c.calls["infer.detect_multistage"]), "count"),
        "metrics.evaluate_ap_s": (c.total["metrics.evaluate_ap"], "s"),
        "metrics.iou_calls": (c.site_calls[("geometry.iou", "densecrop.metrics")], "count"),
        "metrics.profile_errors_s": (c.total["metrics.profile_errors"], "s"),
        "metrics.match_greedy_s": (c.total["metrics.match_greedy"], "s"),
        "metrics.ap": (quality["ap"], "ratio"),
        "metrics.ap_small": (quality["ap_small"], "ratio"),
    }
    # seeding has only count-only leaves; its time is in its callers' self time.
    for layer in LAYERS:
        if layer != "seeding":
            out[f"{layer}.self_s"] = (c.layer_self(layer), "s")
    out["trace.overhead_s"] = (overhead["seconds"], "s")
    out["trace.overhead_pct"] = (overhead["percent"], "%")
    return out


def function_table(c: Combined) -> list:
    """Rows of (key, calls, total_s, self_s) for the result file."""
    keys = sorted(set(c.calls) | set(c.total), key=lambda k: -c.self_time.get(k, 0.0))
    return [
        {"function": k, "calls": c.calls[k], "total_s": c.total.get(k), "self_s": c.self_time.get(k)}
        for k in keys
    ]
