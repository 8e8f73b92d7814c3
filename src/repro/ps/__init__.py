"""Parameter-server substrate: messages, server, workers, trainers.

Three transport-backed trainers share the server/worker core: threaded
(in-process channels), process (OS pipes), and socket (real TCP with
elastic membership and checkpoint/restore — see :mod:`repro.ps.socket`,
:mod:`repro.ps.membership`, :mod:`repro.ps.checkpoint`).
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import decode_message, encode_message
from .membership import WorkerDirectory
from .messages import DiffMessage, GradientMessage, ModelMessage, payload_dense_nbytes, payload_nbytes
from .process import ProcessTrainer
from .server import ParameterServer, ParameterShard
from .socket import SocketTrainer
from .threaded import ThreadedTrainer
from .worker import WorkerNode

__all__ = [
    "encode_message",
    "decode_message",
    "ProcessTrainer",
    "GradientMessage",
    "DiffMessage",
    "ModelMessage",
    "payload_nbytes",
    "payload_dense_nbytes",
    "ParameterServer",
    "ParameterShard",
    "SocketTrainer",
    "WorkerDirectory",
    "WorkerNode",
    "ThreadedTrainer",
    "save_checkpoint",
    "load_checkpoint",
]
