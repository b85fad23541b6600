import os
import sys

# the benchmark modules import each other by their flat names, as they do
# when perfbench/run.py runs as a script, and the package comes from src/
# of the same checkout, as it does for the benchmark's children
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
