"""Parameter-server substrate: messages, server, workers, trainers.

Two trainers share the server/worker core: threaded (in-process
channels) and multi-process (one OS process per worker, over pipes or
real TCP with elastic membership and checkpoint/restore — see
:mod:`repro.ps.multiprocess`, :mod:`repro.ps.membership`,
:mod:`repro.ps.checkpoint`).
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import decode_message, encode_message
from .membership import WorkerDirectory
from .messages import DiffMessage, GradientMessage, ModelMessage, payload_dense_nbytes, payload_nbytes
from .multiprocess import MultiprocessTrainer
from .server import ParameterServer, ParameterShard
from .threaded import ThreadedTrainer
from .worker import WorkerNode

__all__ = [
    "encode_message",
    "decode_message",
    "MultiprocessTrainer",
    "GradientMessage",
    "DiffMessage",
    "ModelMessage",
    "payload_nbytes",
    "payload_dense_nbytes",
    "ParameterServer",
    "ParameterShard",
    "WorkerDirectory",
    "WorkerNode",
    "ThreadedTrainer",
    "save_checkpoint",
    "load_checkpoint",
]
