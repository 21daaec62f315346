// @KERNEL: churn -- malloc/free churn; memset/memcpy of pointer-bearing structs
// @EXPECT: exit 73
#include <stdlib.h>
#include <string.h>
#define N 72
#define K 11
struct rec { int *ptr; int key; int pad[3]; };
int main(void) {
    int vals[16];
    for (int i = 0; i < 16; i++)
        vals[i] = (i * K) % 53;
    struct rec *slots[8];
    for (int i = 0; i < 8; i++)
        slots[i] = 0;
    int sum = 0;
    for (int i = 0; i < N; i++) {
        int s = i % 8;
        if (slots[s]) {
            sum = (sum + *slots[s]->ptr + slots[s]->key) % 65521;
            free(slots[s]);
        }
        struct rec *r = malloc(2 * sizeof(struct rec));
        memset(r, 0, 2 * sizeof(struct rec));
        r[1].ptr = &vals[i % 16];
        r[1].key = i;
        memcpy(&r[0], &r[1], sizeof(struct rec));
        slots[s] = r;
    }
    for (int i = 0; i < 8; i++) {
        sum = (sum + *slots[i]->ptr + slots[i]->key) % 65521;
        free(slots[i]);
    }
    return sum % 256;
}
