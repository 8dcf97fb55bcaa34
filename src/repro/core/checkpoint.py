"""Checkpointing of the in-transit training state.

The streamed simulation data is gone once consumed, but the *learning state*
can and should be persisted: it is the only product of the run (the paper's
trained model is what gets evaluated in Fig. 9), and a restartable MLapp
lets a long campaign survive the failure of either side of the loosely
coupled pair without losing the accumulated knowledge.

A checkpoint directory holds ``manifest.json`` (stream step, iteration and
buffer counts, ``n_rep``) and one ``state-*`` directory it names, with three
``.npz`` archives: the model weights (``model.npz``), the now/EP
experience-replay buffers (``buffer.npz``) and the per-iteration loss
history (``history.npz``).  Adam's moments are not saved: the optimiser of
a restored trainer starts them afresh.

A save is atomic.  The archives are written into a fresh state directory,
and the rename that puts the new manifest in place commits them
(:func:`repro.utils.serialization.write_json`); only then does the previous
state directory go.  A save that fails before
the rename leaves the previous checkpoint loading exactly as it was.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.continual.buffer import TrainingBuffer, TrainingSample
from repro.continual.trainer import InTransitTrainer
from repro.models.model import ArtificialScientistModel
from repro.utils.serialization import write_json


@dataclass(frozen=True)
class CheckpointInfo:
    """Metadata of a written checkpoint."""

    directory: str
    step: int
    training_iterations: int


def _save_npz(path: str, arrays: Dict[str, np.ndarray]) -> None:
    np.savez(path, **arrays)


def _load_npz(path: str) -> Dict[str, np.ndarray]:
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


def _buffer_to_arrays(buffer: TrainingBuffer) -> Dict[str, np.ndarray]:
    """Serialise the now/EP buffers into stackable arrays."""
    arrays: Dict[str, np.ndarray] = {}
    for prefix, samples in (("now", buffer._now), ("ep", buffer._ep)):
        if not samples:
            continue
        arrays[f"{prefix}_point_clouds"] = np.stack([s.point_cloud for s in samples])
        arrays[f"{prefix}_spectra"] = np.stack([s.spectrum for s in samples])
        arrays[f"{prefix}_steps"] = np.asarray([s.step for s in samples], dtype=np.int64)
        arrays[f"{prefix}_regions"] = np.asarray(
            [s.region for s in samples], dtype="U16")
    return arrays


def _arrays_to_samples(arrays: Dict[str, np.ndarray], prefix: str) -> List[TrainingSample]:
    key = f"{prefix}_point_clouds"
    if key not in arrays:
        return []
    clouds = arrays[key]
    spectra = arrays[f"{prefix}_spectra"]
    steps = arrays[f"{prefix}_steps"]
    regions = arrays[f"{prefix}_regions"]
    return [TrainingSample(point_cloud=clouds[i], spectrum=spectra[i],
                           step=int(steps[i]), region=str(regions[i]))
            for i in range(len(clouds))]


def save_checkpoint(directory: str, model: ArtificialScientistModel,
                    trainer: InTransitTrainer, step: int) -> CheckpointInfo:
    """Write model weights, buffers and training history to ``directory``,
    replacing the checkpoint there only once all of it is on disk."""
    os.makedirs(directory, exist_ok=True)
    state = tempfile.mkdtemp(prefix="state-", dir=directory)
    history = trainer.history
    history_arrays = {"steps": np.asarray(history.steps, dtype=np.int64)}
    if history.terms:
        for name in history.terms[0]:
            history_arrays[f"loss_{name}"] = history.series(name)
    manifest = {
        "step": int(step),
        "training_iterations": len(history),
        "samples_consumed": trainer.samples_consumed,
        "buffer": {"now": trainer.buffer.now_count, "ep": trainer.buffer.ep_count,
                   "now_size": trainer.buffer.now_size, "ep_size": trainer.buffer.ep_size},
        "n_rep": trainer.n_rep,
        "state": os.path.basename(state),
    }
    try:
        _save_npz(os.path.join(state, "model.npz"), model.state_dict())
        _save_npz(os.path.join(state, "buffer.npz"), _buffer_to_arrays(trainer.buffer))
        _save_npz(os.path.join(state, "history.npz"), history_arrays)
        write_json(os.path.join(directory, "manifest.json"), manifest)
    except BaseException:
        shutil.rmtree(state, ignore_errors=True)
        raise
    for entry in os.listdir(directory):
        if entry.startswith("state-") and entry != manifest["state"]:
            shutil.rmtree(os.path.join(directory, entry), ignore_errors=True)

    return CheckpointInfo(directory=directory, step=int(step),
                          training_iterations=len(history))


def load_checkpoint(directory: str, model: ArtificialScientistModel,
                    trainer: InTransitTrainer) -> Dict[str, object]:
    """Restore the model weights and the trainer's buffers and loss history
    in place.

    Returns the checkpoint manifest.
    """
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.exists(manifest_path):
        raise FileNotFoundError(f"no checkpoint manifest found in {directory!r}")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    state = os.path.join(directory, manifest["state"])

    model.load_state_dict(_load_npz(os.path.join(state, "model.npz")))

    arrays = _load_npz(os.path.join(state, "buffer.npz"))
    trainer.buffer._now = _arrays_to_samples(arrays, "now")
    trainer.buffer._ep = _arrays_to_samples(arrays, "ep")
    history = _load_npz(os.path.join(state, "history.npz"))
    term_names = [k[len("loss_"):] for k in history if k.startswith("loss_")]
    trainer.history.steps = [int(s) for s in history["steps"]]
    trainer.history.terms = [
        {name: float(history[f"loss_{name}"][i]) for name in term_names}
        for i in range(len(history["steps"]))]
    return manifest
