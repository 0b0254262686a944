"""A small message-passing library over simulated TCP sockets.

Deliberately CR-oblivious: no hooks, no checkpoint callbacks, no channel
flushing — the library is exactly the kind of code MPVM/CoCheck/LAM-MPI had
to *modify* and Cruz does not (§2, §5).
"""
