// A __prelude()-shaped program for the cherisem_run --replay-to
// tests: the prelude fills a global table and a heap block, main()
// reads them back.  Kept out of tests/suite/ so the witness-listing
// golden does not cover it.
#include <stdlib.h>
int table[8];
int *heap;
void __prelude(void) {
    for (int i = 0; i < 8; i++)
        table[i] = i * i;
    heap = malloc(4 * sizeof(int));
    for (int i = 0; i < 4; i++)
        heap[i] = table[i + 4];
}
int main(void) {
    int s = 0;
    for (int i = 0; i < 4; i++)
        s += heap[i] - table[i];
    free(heap);
    return s;
}
