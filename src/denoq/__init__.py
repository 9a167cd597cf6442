"""denoq: post-training quantization for small diffusion denoisers.

Low-bit weight/activation quantization built from three cooperating pieces:
learned per-channel equivalent scaling trained with straight-through
gradients, timestep-aware loss weighting for the multi-step sampler, and a
voted power-of-two rescue for channels the shared activation scale leaves
starved. Quantized layers execute as integer matmuls with the rescue folded
into the weights as bit shifts.
"""

__version__ = "0.1.0"
