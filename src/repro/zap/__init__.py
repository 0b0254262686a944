"""Zap: pods, virtualisation, and single-node pod checkpoint/restart."""

from repro.zap.checkpoint import CheckpointEngine
from repro.zap.image import thaw_object
from repro.zap.restart import RestartEngine
from repro.zap.verify import verify_image
