import gc
import sys

from .cli import main

# Everything built so far, at interpreter start-up and by these imports,
# lives until this one-shot process exits: freezing it spares the cyclic
# collector from traversing it again, above all in the full collection
# at exit.
gc.freeze()
sys.exit(main())
